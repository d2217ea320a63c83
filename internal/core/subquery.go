package core

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// maxInSubqueryRows bounds IN-subquery materialization; beyond this the
// rewritten IN list would dominate planning time and memory.
const maxInSubqueryRows = 100_000

// rewriteSubqueries replaces every uncorrelated subquery in the
// expression with the literals its execution produced: scalar subqueries
// become a single literal, IN-subqueries become an IN list. This is
// CN-side subquery unnesting — the subquery runs as an ordinary
// distributed query (possibly MPP) before the outer statement plans.
// Correlated subqueries fail inside the inner execution when their
// free column references do not bind.
func (s *Session) rewriteSubqueries(e sql.Expr) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	switch n := e.(type) {
	case *sql.Subquery:
		v, err := s.scalarSubquery(n)
		if err != nil {
			return nil, err
		}
		return &sql.Literal{Val: v}, nil
	case *sql.InList:
		if inner, err := s.rewriteSubqueries(n.E); err != nil {
			return nil, err
		} else {
			n.E = inner
		}
		if n.Sub == nil {
			for i, item := range n.Items {
				it, err := s.rewriteSubqueries(item)
				if err != nil {
					return nil, err
				}
				n.Items[i] = it
			}
			return n, nil
		}
		rows, err := s.subqueryRows(n.Sub)
		if err != nil {
			return nil, err
		}
		if len(rows) > maxInSubqueryRows {
			return nil, fmt.Errorf("core: IN subquery produced %d rows (limit %d)", len(rows), maxInSubqueryRows)
		}
		if len(rows) == 0 {
			// x IN (empty) is FALSE, x NOT IN (empty) is TRUE, for any x.
			return &sql.Literal{Val: types.Bool(n.Not)}, nil
		}
		items := make([]sql.Expr, len(rows))
		for i, r := range rows {
			items[i] = &sql.Literal{Val: r[0]}
		}
		n.Items, n.Sub = items, nil
		return n, nil
	case *sql.Exists:
		return s.rewriteExists(n)
	case *sql.BinaryOp:
		var err error
		if n.L, err = s.rewriteSubqueries(n.L); err != nil {
			return nil, err
		}
		if n.R, err = s.rewriteSubqueries(n.R); err != nil {
			return nil, err
		}
		return n, nil
	case *sql.UnaryOp:
		var err error
		if n.E, err = s.rewriteSubqueries(n.E); err != nil {
			return nil, err
		}
		return n, nil
	case *sql.Between:
		var err error
		if n.E, err = s.rewriteSubqueries(n.E); err != nil {
			return nil, err
		}
		if n.Lo, err = s.rewriteSubqueries(n.Lo); err != nil {
			return nil, err
		}
		if n.Hi, err = s.rewriteSubqueries(n.Hi); err != nil {
			return nil, err
		}
		return n, nil
	case *sql.IsNull:
		var err error
		if n.E, err = s.rewriteSubqueries(n.E); err != nil {
			return nil, err
		}
		return n, nil
	case *sql.CaseExpr:
		var err error
		for i := range n.Whens {
			if n.Whens[i].Cond, err = s.rewriteSubqueries(n.Whens[i].Cond); err != nil {
				return nil, err
			}
			if n.Whens[i].Result, err = s.rewriteSubqueries(n.Whens[i].Result); err != nil {
				return nil, err
			}
		}
		if n.Else, err = s.rewriteSubqueries(n.Else); err != nil {
			return nil, err
		}
		return n, nil
	case *sql.FuncCall:
		var err error
		for i := range n.Args {
			if n.Args[i], err = s.rewriteSubqueries(n.Args[i]); err != nil {
				return nil, err
			}
		}
		return n, nil
	default:
		return e, nil
	}
}

// rewriteExists unnests [NOT] EXISTS:
//
//   - fully uncorrelated: execute the inner SELECT and substitute the
//     boolean outcome;
//   - correlated through exactly one equality `inner.col = outer.col`
//     (the overwhelmingly common form — TPC-H Q4, Q22): rewrite to
//     `outer.col [NOT] IN (SELECT inner.col FROM ... WHERE <residual>)`,
//     which the IN-subquery path then executes;
//   - anything else (inequality correlation, multiple correlated
//     conjuncts) is reported unsupported.
func (s *Session) rewriteExists(ex *sql.Exists) (sql.Expr, error) {
	inner := ex.Sub.Sel
	local := s.subqueryScope(inner)
	var correlated []*sql.BinaryOp
	var residual []sql.Expr
	unsupported := false
	for _, c := range conjuncts(inner.Where) {
		refs := sql.ColumnRefs(c)
		outerRefs := 0
		for _, r := range refs {
			if !local(r) {
				outerRefs++
			}
		}
		if outerRefs == 0 {
			residual = append(residual, c)
			continue
		}
		b, ok := c.(*sql.BinaryOp)
		if !ok || b.Op != "=" || len(refs) != 2 || outerRefs != 1 {
			unsupported = true
			break
		}
		correlated = append(correlated, b)
	}
	switch {
	case unsupported || len(correlated) > 1:
		return nil, fmt.Errorf("core: unsupported correlated EXISTS (only a single equality correlation is handled)")
	case len(correlated) == 0:
		// Uncorrelated: the subquery's outcome is a constant.
		res, err := s.execSelect(inner, nil)
		if err != nil {
			return nil, fmt.Errorf("core: EXISTS subquery: %w", err)
		}
		return &sql.Literal{Val: types.Bool((len(res.Rows) > 0) != ex.Not)}, nil
	}
	eq := correlated[0]
	innerCol, outerCol := eq.L, eq.R
	if c, ok := innerCol.(*sql.ColumnRef); !ok || !local(c) {
		innerCol, outerCol = outerCol, innerCol
	}
	rewritten := &sql.Select{
		Items: []sql.SelectItem{{Expr: innerCol}},
		From:  inner.From,
		Joins: inner.Joins,
		Where: andAll(residual),
		Limit: -1,
	}
	return s.rewriteSubqueries(&sql.InList{
		E:   outerCol,
		Sub: &sql.Subquery{Sel: rewritten},
		Not: ex.Not,
	})
}

// subqueryScope returns a predicate deciding whether a column reference
// binds inside the subquery's own FROM list (alias match, or bare name
// found in one of its tables' schemas).
func (s *Session) subqueryScope(sel *sql.Select) func(*sql.ColumnRef) bool {
	aliases := map[string]bool{}
	var tables []string
	add := func(tr sql.TableRef) {
		aliases[strings.ToLower(tr.AliasOrName())] = true
		tables = append(tables, tr.Name)
	}
	add(sel.From)
	for _, j := range sel.Joins {
		add(j.Table)
	}
	return func(c *sql.ColumnRef) bool {
		if c.Table != "" {
			return aliases[strings.ToLower(c.Table)]
		}
		for _, tn := range tables {
			if t, err := s.cn.cluster.GMS.Table(tn); err == nil &&
				t.Schema.ColIndex(c.Column) >= 0 {
				return true
			}
		}
		return false
	}
}

// conjuncts splits a WHERE tree on top-level ANDs.
func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryOp); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// andAll rebuilds a conjunction (nil for an empty set).
func andAll(cs []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &sql.BinaryOp{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// scalarSubquery runs a subquery expected to produce one value: one
// column, at most one row (zero rows yield NULL, per SQL).
func (s *Session) scalarSubquery(sub *sql.Subquery) (types.Value, error) {
	rows, err := s.subqueryRows(sub)
	if err != nil {
		return types.Null(), err
	}
	switch len(rows) {
	case 0:
		return types.Null(), nil
	case 1:
		return rows[0][0], nil
	default:
		return types.Null(), fmt.Errorf("core: scalar subquery returned %d rows", len(rows))
	}
}

// subqueryRows executes an inner SELECT and checks it yields one column.
func (s *Session) subqueryRows(sub *sql.Subquery) ([]types.Row, error) {
	res, err := s.execSelect(sub.Sel, nil)
	if err != nil {
		return nil, fmt.Errorf("core: subquery: %w", err)
	}
	if len(res.Columns) != 1 {
		return nil, fmt.Errorf("core: subquery selects %d columns, want 1", len(res.Columns))
	}
	return res.Rows, nil
}
