package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// formatter is the one traversal that renders statements and
// expressions, as SQL text the parser accepts. Every other rendering is
// an entry into it: FormatStmt, FingerprintSelect, Params, HasSubquery,
// String and Key. It visits literals in the parser's textual order, so
// the literals it collects line up with the '?' of its own lifted text
// and with Literal.Src.
type formatter struct {
	b strings.Builder
	// lift writes as '?' each placeholder and each int, float, string or
	// bytes literal. Bool and NULL stay inline: the optimizer treats them
	// structurally (a constant-true conjunct is dropped), so one plan
	// cannot serve every value of theirs.
	lift bool
	// fold lowers the case of everything but literals (Key).
	fold bool
	// lits collects the lifted literals (lift), or else the placeholders.
	lits []*Literal
	sub  bool // met a subquery
	err  error
}

// FormatStmt renders a parsed statement back to SQL text the parser
// accepts — the wire client's bridge from the workload drivers'
// pre-bound ASTs to the PREPARE/EXECUTE protocol. With paramize true,
// placeholders and int/float/string/bytes literals become '?' and their
// current values are returned in placeholder order (bool and NULL stay
// inline). With paramize false every literal is inlined — the fallback
// for one-shot QUERY frames.
//
// Only executable statements render (SELECT / INSERT / UPDATE / DELETE);
// DDL and EXPLAIN return an error — clients send those as raw text.
func FormatStmt(stmt Statement, paramize bool) (text string, args []types.Value, err error) {
	switch stmt.(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		return "", nil, fmt.Errorf("sql: cannot format %T", stmt)
	}
	f := formatter{lift: paramize}
	f.stmt(stmt)
	if f.err != nil {
		return "", nil, f.err
	}
	if paramize {
		args = make([]types.Value, len(f.lits))
		for i, l := range f.lits {
			args[i] = l.Val
		}
	}
	return f.b.String(), args, nil
}

// FingerprintSelect renders a SELECT with its literals lifted (as
// FormatStmt does with paramize): the plan-cache key. params are the
// lifted literals in textual order, so two queries that differ only in
// those literals share a fingerprint and hence a cached plan skeleton.
//
// ok is false when the statement is not cacheable: it still contains a
// subquery (the CN substitutes uncorrelated subquery results as literals
// before planning; anything left is dynamic in ways a skeleton cannot
// capture), or a placeholder is bound to a bool or NULL, whose skeleton
// could be wrong for another value.
func FingerprintSelect(sel *Select) (fp string, params []*Literal, ok bool) {
	f := formatter{lift: true}
	f.sel(sel)
	if f.err != nil || f.sub {
		return "", nil, false
	}
	for _, l := range f.lits {
		if l.Param && (l.Val.K == types.KindBool || l.Val.K == types.KindNull) {
			return "", nil, false
		}
	}
	return f.b.String(), f.lits, true
}

// Params collects a statement's '?' placeholder literals in textual
// (parse) order — the binding vector for a prepared statement. A
// statement re-parsed from its own text yields positionally identical
// parameters.
func Params(stmt Statement) []*Literal {
	var f formatter
	f.stmt(stmt)
	return f.lits
}

// HasSubquery reports whether any expression in the statement contains a
// subquery (plain or EXISTS/IN form). Execution rewrites subqueries into
// literal lists in place, so prepared handles re-parse such statements
// per execution instead of reusing a mutated AST.
func HasSubquery(stmt Statement) bool {
	var f formatter
	f.stmt(stmt)
	return f.sub
}

// String renders an expression for diagnostics and plan display.
func String(e Expr) string {
	var f formatter
	f.expr(e)
	return f.b.String()
}

// Key renders an expression as its identity: two expressions share a key
// only when they are the same tree, up to the case of identifiers and
// keywords, which it lowers. The optimizer names output columns by their
// keys and computes an expression once per key.
func Key(e Expr) string {
	if c, ok := e.(*ColumnRef); ok && c.Table == "" && !strings.ContainsFunc(c.Column, isUpper) {
		return c.Column // a bare lower-case name is its own key: no copy
	}
	f := formatter{fold: true}
	f.expr(e)
	return f.b.String()
}

func (f *formatter) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

func isUpper(r rune) bool { return 'A' <= r && r <= 'Z' }

// word writes a keyword, operator or identifier. In a key it is written
// in lower case, except inside single quotes: a column that names an
// aggregate's output is that aggregate's key, literals and all.
func (f *formatter) word(s string) {
	if !f.fold {
		f.b.WriteString(s)
		return
	}
	quoted := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'':
			quoted = !quoted
		case !quoted && isUpper(rune(c)):
			c += 'a' - 'A'
		}
		f.b.WriteByte(c)
	}
}

func (f *formatter) stmt(stmt Statement) {
	switch st := stmt.(type) {
	case *Select:
		f.sel(st)
	case *Insert:
		f.word("INSERT INTO ")
		f.word(st.Table)
		if len(st.Columns) > 0 {
			f.b.WriteString(" (")
			f.list(len(st.Columns), func(i int) { f.word(st.Columns[i]) })
			f.b.WriteByte(')')
		}
		f.word(" VALUES ")
		f.list(len(st.Rows), func(i int) {
			f.b.WriteByte('(')
			f.exprs(st.Rows[i])
			f.b.WriteByte(')')
		})
	case *Update:
		f.word("UPDATE ")
		f.word(st.Table)
		f.word(" SET ")
		f.list(len(st.Sets), func(i int) {
			f.word(st.Sets[i].Column)
			f.b.WriteString(" = ")
			f.expr(st.Sets[i].Value)
		})
		f.where(st.Where)
	case *Delete:
		f.word("DELETE FROM ")
		f.word(st.Table)
		f.where(st.Where)
	case *Explain:
		f.word("EXPLAIN ")
		if st.Analyze {
			f.word("ANALYZE ")
		}
		f.stmt(st.Stmt)
	default:
		f.fail("sql: cannot format %T", stmt)
	}
}

func (f *formatter) sel(s *Select) {
	f.word("SELECT ")
	f.list(len(s.Items), func(i int) {
		it := s.Items[i]
		if it.Star {
			f.b.WriteByte('*')
			return
		}
		f.expr(it.Expr)
		if it.Alias != "" {
			f.word(" AS ")
			f.word(it.Alias)
		}
	})
	f.word(" FROM ")
	f.tableRef(s.From)
	for _, j := range s.Joins {
		if j.Left {
			f.word(" LEFT")
		}
		f.word(" JOIN ")
		f.tableRef(j.Table)
		f.word(" ON ")
		f.expr(j.On)
	}
	f.where(s.Where)
	if len(s.GroupBy) > 0 {
		f.word(" GROUP BY ")
		f.exprs(s.GroupBy)
	}
	if s.Having != nil {
		f.word(" HAVING ")
		f.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		f.word(" ORDER BY ")
		f.list(len(s.OrderBy), func(i int) {
			f.expr(s.OrderBy[i].Expr)
			if s.OrderBy[i].Desc {
				f.word(" DESC")
			}
		})
	}
	if s.Limit >= 0 {
		// LIMIT shapes the plan (a node constant, not a *Literal), so
		// it stays in a fingerprint.
		f.word(" LIMIT ")
		f.b.WriteString(strconv.Itoa(s.Limit))
	}
}

func (f *formatter) where(e Expr) {
	if e != nil {
		f.word(" WHERE ")
		f.expr(e)
	}
}

func (f *formatter) tableRef(t TableRef) {
	f.word(t.Name)
	if t.Alias != "" {
		f.word(" AS ")
		f.word(t.Alias)
	}
}

// list writes n comma-separated elements.
func (f *formatter) list(n int, elem func(i int)) {
	for i := 0; i < n; i++ {
		if i > 0 {
			f.b.WriteString(", ")
		}
		elem(i)
	}
}

func (f *formatter) exprs(es []Expr) {
	for i, e := range es {
		if i > 0 {
			f.b.WriteString(", ")
		}
		f.expr(e)
	}
}

func (f *formatter) expr(e Expr) {
	switch x := e.(type) {
	case nil:
		f.fail("sql: cannot format nil expression")
	case *ColumnRef:
		if x.Table != "" {
			f.word(x.Table)
			f.b.WriteByte('.')
		}
		f.word(x.Column)
	case *Literal:
		f.literal(x)
	case *BinaryOp:
		side := f.operand
		if x.Op == "AND" || x.Op == "OR" {
			side = f.expr // the parser reads a whole predicate there
		}
		f.b.WriteByte('(')
		side(x.L)
		f.b.WriteByte(' ')
		f.word(x.Op)
		f.b.WriteByte(' ')
		side(x.R)
		f.b.WriteByte(')')
	case *UnaryOp:
		f.b.WriteByte('(')
		f.word(x.Op)
		f.b.WriteByte(' ')
		f.operand(x.E)
		f.b.WriteByte(')')
	case *InList:
		f.operand(x.E)
		if x.Not {
			f.word(" NOT")
		}
		f.word(" IN (")
		if x.Sub != nil {
			f.sub = true
			f.sel(x.Sub.Sel)
		} else {
			f.exprs(x.Items)
		}
		f.b.WriteByte(')')
	case *Exists:
		f.sub = true
		if x.Not {
			f.word("NOT ")
		}
		f.word("EXISTS (")
		f.sel(x.Sub.Sel)
		f.b.WriteByte(')')
	case *Subquery:
		f.sub = true
		f.b.WriteByte('(')
		f.sel(x.Sel)
		f.b.WriteByte(')')
	case *Between:
		f.operand(x.E)
		if x.Not {
			f.word(" NOT")
		}
		f.word(" BETWEEN ")
		f.operand(x.Lo)
		f.word(" AND ")
		f.operand(x.Hi)
	case *IsNull:
		f.operand(x.E)
		f.word(" IS ")
		if x.Not {
			f.word("NOT ")
		}
		f.word("NULL")
	case *FuncCall:
		f.word(x.Name)
		f.b.WriteByte('(')
		if x.Distinct {
			f.word("DISTINCT ")
		}
		if x.Star {
			f.b.WriteByte('*')
		}
		f.exprs(x.Args)
		f.b.WriteByte(')')
	case *CaseExpr:
		f.word("CASE")
		for _, wh := range x.Whens {
			f.word(" WHEN ")
			f.expr(wh.Cond)
			f.word(" THEN ")
			f.expr(wh.Result)
		}
		if x.Else != nil {
			f.word(" ELSE ")
			f.expr(x.Else)
		}
		f.word(" END")
	default:
		f.fail("sql: cannot format %T", e)
	}
}

// operand writes e where the parser reads an additive expression: the
// forms that end in a keyword clause are parenthesized there.
func (f *formatter) operand(e Expr) {
	switch e.(type) {
	case *InList, *Between, *IsNull, *Exists:
		f.b.WriteByte('(')
		f.expr(e)
		f.b.WriteByte(')')
	default:
		f.expr(e)
	}
}

func (f *formatter) literal(x *Literal) {
	structural := x.Val.K == types.KindBool || x.Val.K == types.KindNull
	if x.Param || f.lift && !structural {
		f.lits = append(f.lits, x)
		if f.lift {
			f.b.WriteByte('?')
			return
		}
	}
	switch x.Val.K {
	case types.KindNull:
		f.word("NULL")
	case types.KindBool:
		if x.Val.I != 0 {
			f.word("TRUE")
		} else {
			f.word("FALSE")
		}
	case types.KindInt:
		f.b.WriteString(strconv.FormatInt(x.Val.I, 10))
	case types.KindFloat:
		s := strconv.FormatFloat(x.Val.F, 'g', -1, 64)
		f.b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			f.b.WriteString(".0") // keep the float kind through a re-parse
		}
	case types.KindString, types.KindBytes:
		// The lexer's escapes: embedded quotes and backslashes doubled.
		s := x.Val.AsString()
		f.b.WriteByte('\'')
		for i := 0; i < len(s); i++ {
			if s[i] == '\'' || s[i] == '\\' {
				f.b.WriteByte(s[i])
			}
			f.b.WriteByte(s[i])
		}
		f.b.WriteByte('\'')
	default:
		f.fail("sql: cannot format literal kind %v", x.Val.K)
	}
}
