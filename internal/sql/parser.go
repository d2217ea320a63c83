package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parser is a recursive-descent parser over the lexer's token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseExpr parses a standalone expression (used by tests).
func ParseExpr(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().Text)
	}
	return e, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return Token{}, p.errf("expected %q, found %q", text, p.cur().Text)
}

func (p *Parser) errf(format string, args ...any) error {
	return syntaxErrorf("sql: parse error at %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "EXPLAIN"):
		return p.parseExplain()
	default:
		return nil, p.errf("unexpected %q", p.cur().Text)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <select>. Only SELECT is
// explainable: DML plans are trivially single-node and DDL has no plan.
func (p *Parser) parseExplain() (Statement, error) {
	if _, err := p.expect(TokKeyword, "EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.accept(TokKeyword, "ANALYZE")
	if !p.at(TokKeyword, "SELECT") {
		return nil, p.errf("EXPLAIN supports only SELECT, found %q", p.cur().Text)
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &Explain{Analyze: analyze, Stmt: sel}, nil
}

// identLike accepts an identifier or a non-reserved keyword used as a
// name (e.g. a column named "date" or "key").
func (p *Parser) identLike() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "KEY", "DATE", "COUNT", "SUM", "AVG", "MIN", "MAX", "INDEX", "GLOBAL":
			p.pos++
			return strings.ToLower(t.Text), nil
		}
	}
	return "", p.errf("expected identifier, found %q", t.Text)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.expect(TokKeyword, "CREATE")
	switch {
	case p.accept(TokKeyword, "TABLE"):
		return p.parseCreateTable()
	case p.at(TokKeyword, "GLOBAL") || p.at(TokKeyword, "CLUSTERED") || p.at(TokKeyword, "INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	ct := &CreateTable{Partitions: 1}
	if p.accept(TokKeyword, "IF") {
		if _, err := p.expect(TokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	for {
		if p.accept(TokKeyword, "PRIMARY") {
			if _, err := p.expect(TokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.identLike()
				if err != nil {
					return nil, err
				}
				ct.PKCols = append(ct.PKCols, col)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			kind, err := p.parseColumnType()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, ColumnDef{Name: col, Kind: kind})
			// Tolerate NOT NULL and other inline noise words.
			for p.accept(TokKeyword, "NOT") || p.accept(TokKeyword, "NULL") {
			}
			if p.accept(TokKeyword, "PRIMARY") {
				if _, err := p.expect(TokKeyword, "KEY"); err != nil {
					return nil, err
				}
				ct.PKCols = append(ct.PKCols, col)
			}
		}
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokKeyword, "PARTITIONS"):
			n, err := p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
			ct.Partitions = n
			if p.accept(TokKeyword, "BY") {
				if _, err := p.expect(TokOp, "("); err != nil {
					return nil, err
				}
				for {
					col, err := p.identLike()
					if err != nil {
						return nil, err
					}
					ct.PartitionBy = append(ct.PartitionBy, col)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			}
		case p.accept(TokKeyword, "TABLEGROUP"):
			g, err := p.identLike()
			if err != nil {
				return nil, err
			}
			ct.TableGroup = g
		default:
			return ct, nil
		}
	}
}

func (p *Parser) parseColumnType() (types.Kind, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return 0, p.errf("expected column type, found %q", t.Text)
	}
	p.pos++
	// Swallow (n) / (p,s) length arguments.
	if p.accept(TokOp, "(") {
		for !p.accept(TokOp, ")") {
			p.pos++
			if p.at(TokEOF, "") {
				return 0, p.errf("unterminated type arguments")
			}
		}
	}
	switch t.Text {
	case "INT", "BIGINT":
		return types.KindInt, nil
	case "FLOAT", "DOUBLE", "DECIMAL":
		return types.KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT":
		return types.KindString, nil
	case "BOOL":
		return types.KindBool, nil
	case "DATE":
		// Dates are int64 days in this engine (documented simplification).
		return types.KindInt, nil
	default:
		return 0, p.errf("unsupported column type %q", t.Text)
	}
}

func (p *Parser) parseIntLiteral() (int, error) {
	t := p.cur()
	if t.Kind != TokNumber {
		return 0, p.errf("expected number, found %q", t.Text)
	}
	p.pos++
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	ci := &CreateIndex{}
	for {
		switch {
		case p.accept(TokKeyword, "GLOBAL"):
			ci.Global = true
		case p.accept(TokKeyword, "CLUSTERED"):
			ci.Clustered = true
			ci.Global = true // clustered implies global in PolarDB-X
		default:
			goto done
		}
	}
done:
	if _, err := p.expect(TokKeyword, "INDEX"); err != nil {
		return nil, err
	}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	ci.Name = name
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.identLike()
	if err != nil {
		return nil, err
	}
	ci.Table = tbl
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, col)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.expect(TokKeyword, "INSERT")
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	ins.Table = name
	if p.accept(TokOp, "(") {
		for {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.expect(TokKeyword, "UPDATE")
	up := &Update{}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	up.Table = name
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Sets = append(up.Sets, Assignment{Column: col, Value: val})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.expect(TokKeyword, "DELETE")
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	del := &Delete{}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	del.Table = name
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *Parser) parseSelect() (*Select, error) {
	p.expect(TokKeyword, "SELECT")
	sel := &Select{Limit: -1}
	for {
		if p.accept(TokOp, "*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(TokKeyword, "AS") {
				a, err := p.identLike()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.at(TokIdent, "") {
				item.Alias = p.cur().Text
				p.pos++
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = tr
	for {
		left := false
		if p.accept(TokKeyword, "LEFT") {
			left = true
			p.accept(TokKeyword, "INNER") // tolerate odd combos
		} else if !p.at(TokKeyword, "JOIN") && !p.at(TokKeyword, "INNER") && !p.at(TokOp, ",") {
			break
		}
		if p.accept(TokOp, ",") {
			// Comma join: cross join with the ON condition in WHERE
			// (classic TPC-H style). Treated as JOIN ... ON TRUE.
			t2, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, JoinClause{Table: t2,
				On: &Literal{Val: types.Bool(true)}})
			continue
		}
		p.accept(TokKeyword, "INNER")
		if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		t2, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		jc := JoinClause{Table: t2, Left: left}
		if p.accept(TokKeyword, "ON") {
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			jc.On = on
		} else {
			jc.On = &Literal{Val: types.Bool(true)}
		}
		sel.Joins = append(sel.Joins, jc)
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.identLike()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.accept(TokKeyword, "AS") {
		a, err := p.identLike()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a
	} else if p.at(TokIdent, "") {
		tr.Alias = p.cur().Text
		p.pos++
	}
	return tr, nil
}

// --- Expression parsing (precedence climbing) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if ex, ok := e.(*Exists); ok {
			ex.Not = !ex.Not
			return ex, nil
		}
		return &UnaryOp{Op: "NOT", E: e}, nil
	}
	if p.accept(TokKeyword, "EXISTS") {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &Exists{Sub: &Subquery{Sel: sub}}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := p.accept(TokKeyword, "NOT")
	switch {
	case p.accept(TokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept(TokKeyword, "IN"):
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		if p.at(TokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &InList{E: l, Sub: &Subquery{Sel: sub}, Not: not}, nil
		}
		var items []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &InList{E: l, Items: items, Not: not}, nil
	case p.accept(TokKeyword, "LIKE"):
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryOp{Op: "LIKE", L: l, R: r})
		if not {
			e = &UnaryOp{Op: "NOT", E: e}
		}
		return e, nil
	case p.accept(TokKeyword, "IS"):
		isNot := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Not: isNot}, nil
	}
	if not {
		return nil, p.errf("expected BETWEEN/IN/LIKE after NOT")
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(TokOp, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "+", L: l, R: r}
		case p.accept(TokOp, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "*", L: l, R: r}
		case p.accept(TokOp, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			// Fold negative literals. The folded node keeps its source
			// token and records the sign flip, so a shape binding can
			// rebuild the value from the lifted literal.
			switch lit.Val.K {
			case types.KindInt:
				return &Literal{Val: types.Int(-lit.Val.I), Src: lit.Src, Neg: !lit.Neg}, nil
			case types.KindFloat:
				return &Literal{Val: types.Float(-lit.Val.F), Src: lit.Src, Neg: !lit.Neg}, nil
			}
		}
		return &UnaryOp{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		v, err := numberValue(t.Text)
		if err != nil {
			if v.K == types.KindFloat {
				return nil, p.errf("bad number %q", t.Text)
			}
			return nil, p.errf("bad integer %q", t.Text)
		}
		return &Literal{Val: v, Src: t.Pos + 1}, nil
	case t.Kind == TokString:
		p.pos++
		return &Literal{Val: types.Str(t.Text), Src: t.Pos + 1}, nil
	case t.Kind == TokOp && t.Text == "?":
		p.pos++
		return &Literal{Param: true}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.pos++
		return &Literal{Val: types.Null()}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.pos++
		return &Literal{Val: types.Bool(true)}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.pos++
		return &Literal{Val: types.Bool(false)}, nil
	case t.Kind == TokKeyword && t.Text == "CASE":
		return p.parseCase()
	case t.Kind == TokKeyword && isFuncKeyword(t.Text):
		p.pos++
		return p.parseFuncCall(t.Text)
	case t.Kind == TokIdent:
		p.pos++
		name := t.Text
		if p.accept(TokOp, "(") {
			p.pos-- // rewind the "(" for parseFuncCall
			return p.parseFuncCall(strings.ToUpper(name))
		}
		if p.accept(TokOp, ".") {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col, Index: -1}, nil
		}
		return &ColumnRef{Column: name, Index: -1}, nil
	case p.accept(TokOp, "("):
		if p.at(TokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &Subquery{Sel: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("unexpected %q in expression", t.Text)
	}
}

// numberValue converts a number token's text: a float when it has a
// fraction or an exponent, else a 64-bit integer. On error the value's
// kind still says which conversion failed.
func numberValue(text string) (types.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		return types.Float(f), err
	}
	n, err := strconv.ParseInt(text, 10, 64)
	return types.Int(n), err
}

func isFuncKeyword(s string) bool {
	switch s {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.accept(TokOp, "*") {
		fc.Star = true
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.accept(TokKeyword, "DISTINCT")
	if !p.at(TokOp, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.expect(TokKeyword, "CASE")
	ce := &CaseExpr{}
	for p.accept(TokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept(TokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}
