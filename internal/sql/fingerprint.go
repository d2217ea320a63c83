package sql

import (
	"strconv"
	"strings"

	"repro/internal/types"
)

// FingerprintSelect renders a SELECT to a literal-normalized string: the
// plan-cache key. Int/float/string literals become '?' and are collected
// (in traversal order) as the statement's parameters — two queries that
// differ only in those literals share a fingerprint and hence a cached
// plan skeleton. Bool and NULL literals are rendered verbatim: the
// optimizer treats them structurally (e.g. a constant-true conjunct is
// dropped), so normalizing them would let one plan shape serve queries
// that need different shapes.
//
// ok is false when the statement is not cacheable: it still contains a
// subquery (the CN substitutes uncorrelated subquery results as literals
// before planning; anything left is dynamic in ways a skeleton cannot
// capture).
func FingerprintSelect(sel *Select) (fp string, params []*Literal, ok bool) {
	w := &fingerprinter{ok: true}
	w.sel(sel)
	if !w.ok {
		return "", nil, false
	}
	return w.b.String(), w.params, true
}

// fingerprinter walks the AST, rendering structure and collecting
// parameterized literals. The traversal order here defines parameter
// order; plan instantiation matches cached literal pointers positionally
// against a fresh statement's literals, so every expression the planner
// can consume must be visited.
type fingerprinter struct {
	b      strings.Builder
	params []*Literal
	ok     bool
}

func (w *fingerprinter) sel(s *Select) {
	w.b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			w.b.WriteByte(',')
		}
		if it.Star {
			w.b.WriteByte('*')
			continue
		}
		w.expr(it.Expr)
		if it.Alias != "" {
			w.b.WriteString(" AS ")
			w.b.WriteString(it.Alias)
		}
	}
	w.b.WriteString(" FROM ")
	w.tableRef(s.From)
	for _, j := range s.Joins {
		if j.Left {
			w.b.WriteString(" LEFT JOIN ")
		} else {
			w.b.WriteString(" JOIN ")
		}
		w.tableRef(j.Table)
		w.b.WriteString(" ON ")
		w.expr(j.On)
	}
	if s.Where != nil {
		w.b.WriteString(" WHERE ")
		w.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		w.b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.expr(e)
		}
	}
	if s.Having != nil {
		w.b.WriteString(" HAVING ")
		w.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		w.b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.expr(o.Expr)
			if o.Desc {
				w.b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		// LIMIT shapes the plan (it is folded into the plan tree as a
		// node constant, not a *Literal), so it stays in the key.
		w.b.WriteString(" LIMIT ")
		w.b.WriteString(strconv.Itoa(s.Limit))
	}
}

func (w *fingerprinter) tableRef(t TableRef) {
	w.b.WriteString(t.Name)
	if t.Alias != "" {
		w.b.WriteByte(' ')
		w.b.WriteString(t.Alias)
	}
}

func (w *fingerprinter) expr(e Expr) {
	if !w.ok {
		return
	}
	switch x := e.(type) {
	case nil:
		w.b.WriteString("<nil>")
	case *ColumnRef:
		w.b.WriteString(x.Name())
	case *Literal:
		if x.Param {
			// A prepared-statement placeholder is always a parameter —
			// except when it is bound to a structural kind (bool/NULL),
			// where a skeleton planned for one value could be wrong for
			// another. Those executions plan directly instead.
			switch x.Val.K {
			case types.KindBool, types.KindNull:
				w.ok = false
				return
			}
			w.b.WriteByte('?')
			w.params = append(w.params, x)
			return
		}
		switch x.Val.K {
		case types.KindBool, types.KindNull:
			// Structural: kept verbatim (see FingerprintSelect doc).
			w.b.WriteString(x.Val.AsString())
		default:
			w.b.WriteByte('?')
			w.params = append(w.params, x)
		}
	case *BinaryOp:
		w.b.WriteByte('(')
		w.expr(x.L)
		w.b.WriteByte(' ')
		w.b.WriteString(x.Op)
		w.b.WriteByte(' ')
		w.expr(x.R)
		w.b.WriteByte(')')
	case *UnaryOp:
		w.b.WriteByte('(')
		w.b.WriteString(x.Op)
		w.b.WriteByte(' ')
		w.expr(x.E)
		w.b.WriteByte(')')
	case *InList:
		if x.Sub != nil {
			w.ok = false
			return
		}
		w.expr(x.E)
		if x.Not {
			w.b.WriteString(" NOT")
		}
		w.b.WriteString(" IN (")
		for i, it := range x.Items {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.expr(it)
		}
		w.b.WriteByte(')')
	case *Exists:
		w.ok = false
	case *Subquery:
		w.ok = false
	case *Between:
		w.expr(x.E)
		if x.Not {
			w.b.WriteString(" NOT")
		}
		w.b.WriteString(" BETWEEN ")
		w.expr(x.Lo)
		w.b.WriteString(" AND ")
		w.expr(x.Hi)
	case *IsNull:
		w.expr(x.E)
		w.b.WriteString(" IS ")
		if x.Not {
			w.b.WriteString("NOT ")
		}
		w.b.WriteString("NULL")
	case *FuncCall:
		w.b.WriteString(x.Name)
		w.b.WriteByte('(')
		if x.Distinct {
			w.b.WriteString("DISTINCT ")
		}
		if x.Star {
			w.b.WriteByte('*')
		}
		for i, a := range x.Args {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.expr(a)
		}
		w.b.WriteByte(')')
	case *CaseExpr:
		w.b.WriteString("CASE")
		for _, wh := range x.Whens {
			w.b.WriteString(" WHEN ")
			w.expr(wh.Cond)
			w.b.WriteString(" THEN ")
			w.expr(wh.Result)
		}
		if x.Else != nil {
			w.b.WriteString(" ELSE ")
			w.expr(x.Else)
		}
		w.b.WriteString(" END")
	default:
		// Unknown node kind: refuse to cache rather than risk a wrong
		// fingerprint collision.
		w.ok = false
	}
}

// CloneExpr copies an expression for the plan cache. With deep set it
// copies every node, so the copy shares nothing with e (a literal keeps
// its Slot): the snapshot a cached skeleton owns. Otherwise it is copy on
// write over a skeleton: a literal with a Slot is replaced by
// &params[Slot-1], the nodes on the path to one are copied, and every
// subtree without one is returned as it is, shared. changed reports
// whether the result is a new node.
func CloneExpr(e Expr, params []Literal, deep bool) (out Expr, changed bool) {
	switch x := e.(type) {
	case nil:
		return nil, false
	case *ColumnRef:
		if !deep {
			return x, false
		}
		c := *x
		return &c, true
	case *Literal:
		if deep {
			c := *x
			return &c, true
		}
		if x.Slot > 0 {
			return &params[x.Slot-1], true
		}
		return x, false
	case *BinaryOp:
		l, lc := CloneExpr(x.L, params, deep)
		r, rc := CloneExpr(x.R, params, deep)
		if !lc && !rc {
			return x, false
		}
		return &BinaryOp{Op: x.Op, L: l, R: r}, true
	case *UnaryOp:
		in, c := CloneExpr(x.E, params, deep)
		if !c {
			return x, false
		}
		return &UnaryOp{Op: x.Op, E: in}, true
	case *InList:
		in, ec := CloneExpr(x.E, params, deep)
		items, ic := CloneExprs(x.Items, params, deep)
		if !ec && !ic {
			return x, false
		}
		return &InList{E: in, Items: items, Not: x.Not, Sub: x.Sub}, true
	case *Exists:
		if !deep {
			return x, false
		}
		return &Exists{Sub: x.Sub, Not: x.Not}, true
	case *Subquery:
		if !deep {
			return x, false
		}
		return &Subquery{Sel: x.Sel}, true
	case *Between:
		in, ec := CloneExpr(x.E, params, deep)
		lo, lc := CloneExpr(x.Lo, params, deep)
		hi, hc := CloneExpr(x.Hi, params, deep)
		if !ec && !lc && !hc {
			return x, false
		}
		return &Between{E: in, Lo: lo, Hi: hi, Not: x.Not}, true
	case *IsNull:
		in, c := CloneExpr(x.E, params, deep)
		if !c {
			return x, false
		}
		return &IsNull{E: in, Not: x.Not}, true
	case *FuncCall:
		args, c := CloneExprs(x.Args, params, deep)
		if !c && !deep {
			return x, false
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, true
	case *CaseExpr:
		els, changed := CloneExpr(x.Else, params, deep)
		var whens []WhenClause
		for i, wh := range x.Whens {
			cond, cc := CloneExpr(wh.Cond, params, deep)
			res, rc := CloneExpr(wh.Result, params, deep)
			if (cc || rc) && whens == nil {
				whens = append(make([]WhenClause, 0, len(x.Whens)), x.Whens[:i]...)
			}
			if whens != nil {
				whens = append(whens, WhenClause{Cond: cond, Result: res})
			}
		}
		if whens == nil {
			whens = x.Whens
		} else {
			changed = true
		}
		if !changed && !deep {
			return x, false
		}
		return &CaseExpr{Whens: whens, Else: els}, true
	default:
		return e, false
	}
}

// CloneExprs applies CloneExpr to each expression of es. The slice is
// copied from the first element that changed; when none did, es itself
// is returned and changed is false.
func CloneExprs(es []Expr, params []Literal, deep bool) (out []Expr, changed bool) {
	for i, e := range es {
		c, ch := CloneExpr(e, params, deep)
		if ch && out == nil {
			out = append(make([]Expr, 0, len(es)), es[:i]...)
		}
		if out != nil {
			out = append(out, c)
		}
	}
	if out == nil {
		return es, false
	}
	return out, true
}
