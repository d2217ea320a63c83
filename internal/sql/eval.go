package sql

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// Errors.
var (
	ErrUnboundColumn = errors.New("sql: unbound column reference")
	ErrAggInScalar   = errors.New("sql: aggregate in scalar context")
)

// Eval evaluates a bound expression against a row. Column references
// must have been resolved (Index >= 0) by the planner's binder.
// Aggregate function calls are rejected — the executor computes them.
func Eval(e Expr, row types.Row) (types.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *ColumnRef:
		if n.Index < 0 || n.Index >= len(row) {
			return types.Null(), fmt.Errorf("%w: %s (index %d, row width %d)",
				ErrUnboundColumn, n.Name(), n.Index, len(row))
		}
		return row[n.Index], nil
	case *UnaryOp:
		v, err := Eval(n.E, row)
		if err != nil {
			return types.Null(), err
		}
		switch n.Op {
		case "NOT":
			if v.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(!v.IsTruthy()), nil
		case "-":
			if v.K == types.KindInt {
				return types.Int(-v.I), nil
			}
			return types.Float(-v.AsFloat()), nil
		default:
			return types.Null(), fmt.Errorf("sql: unknown unary op %q", n.Op)
		}
	case *BinaryOp:
		return evalBinary(n, row)
	case *InList:
		if n.Sub != nil {
			return types.Null(), fmt.Errorf("sql: unrewritten IN subquery (correlated subqueries are not supported)")
		}
		v, err := Eval(n.E, row)
		if err != nil {
			return types.Null(), err
		}
		found := false
		for _, item := range n.Items {
			iv, err := Eval(item, row)
			if err != nil {
				return types.Null(), err
			}
			if !v.IsNull() && !iv.IsNull() && v.Compare(iv) == 0 {
				found = true
				break
			}
		}
		if n.Not {
			found = !found
		}
		return types.Bool(found), nil
	case *Between:
		v, err := Eval(n.E, row)
		if err != nil {
			return types.Null(), err
		}
		lo, err := Eval(n.Lo, row)
		if err != nil {
			return types.Null(), err
		}
		hi, err := Eval(n.Hi, row)
		if err != nil {
			return types.Null(), err
		}
		in := !v.IsNull() && v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		if n.Not {
			in = !in
		}
		return types.Bool(in), nil
	case *IsNull:
		v, err := Eval(n.E, row)
		if err != nil {
			return types.Null(), err
		}
		res := v.IsNull()
		if n.Not {
			res = !res
		}
		return types.Bool(res), nil
	case *CaseExpr:
		for _, w := range n.Whens {
			c, err := Eval(w.Cond, row)
			if err != nil {
				return types.Null(), err
			}
			if c.IsTruthy() {
				return Eval(w.Result, row)
			}
		}
		if n.Else != nil {
			return Eval(n.Else, row)
		}
		return types.Null(), nil
	case *FuncCall:
		if n.IsAggregate() {
			return types.Null(), fmt.Errorf("%w: %s", ErrAggInScalar, n.Name)
		}
		return types.Null(), fmt.Errorf("sql: unknown function %q", n.Name)
	case *Subquery:
		return types.Null(), fmt.Errorf("sql: unrewritten scalar subquery (correlated subqueries are not supported)")
	case *Exists:
		return types.Null(), fmt.Errorf("sql: unrewritten EXISTS (only single-equality correlation is supported)")
	default:
		return types.Null(), fmt.Errorf("sql: cannot evaluate %T", e)
	}
}

func evalBinary(n *BinaryOp, row types.Row) (types.Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return types.Null(), err
	}
	// Short-circuit logical operators.
	switch n.Op {
	case "AND":
		if !l.IsNull() && !l.IsTruthy() {
			return types.Bool(false), nil
		}
		r, err := Eval(n.R, row)
		if err != nil {
			return types.Null(), err
		}
		return types.Bool(l.IsTruthy() && r.IsTruthy()), nil
	case "OR":
		if l.IsTruthy() {
			return types.Bool(true), nil
		}
		r, err := Eval(n.R, row)
		if err != nil {
			return types.Null(), err
		}
		return types.Bool(r.IsTruthy()), nil
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return types.Null(), err
	}
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil // SQL three-valued comparison
		}
		c := l.Compare(r)
		var res bool
		switch n.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return types.Bool(res), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		if l.K == types.KindInt && r.K == types.KindInt {
			switch n.Op {
			case "+":
				return types.Int(l.I + r.I), nil
			case "-":
				return types.Int(l.I - r.I), nil
			case "*":
				return types.Int(l.I * r.I), nil
			case "/":
				// Integer / integer truncates (MySQL DIV semantics);
				// mixed operands divide as floats.
				if r.I == 0 {
					return types.Null(), nil
				}
				return types.Int(l.I / r.I), nil
			}
		}
		a, b := l.AsFloat(), r.AsFloat()
		switch n.Op {
		case "+":
			return types.Float(a + b), nil
		case "-":
			return types.Float(a - b), nil
		case "*":
			return types.Float(a * b), nil
		default:
			if b == 0 {
				return types.Null(), nil // SQL: division by zero yields NULL
			}
			return types.Float(a / b), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return types.Null(), nil
		}
		return types.Bool(likeMatch(l.AsString(), r.AsString())), nil
	default:
		return types.Null(), fmt.Errorf("sql: unknown operator %q", n.Op)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// character) using an iterative two-pointer match.
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// Walk visits every node of an expression tree in pre-order. The visitor
// returning false prunes the subtree.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryOp:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *UnaryOp:
		Walk(n.E, visit)
	case *InList:
		Walk(n.E, visit)
		for _, i := range n.Items {
			Walk(i, visit)
		}
		// n.Sub is deliberately opaque: its column references bind
		// inside the subquery's own scope, not the enclosing query's.
	case *Between:
		Walk(n.E, visit)
		Walk(n.Lo, visit)
		Walk(n.Hi, visit)
	case *IsNull:
		Walk(n.E, visit)
	case *CaseExpr:
		for _, w := range n.Whens {
			Walk(w.Cond, visit)
			Walk(w.Result, visit)
		}
		Walk(n.Else, visit)
	case *FuncCall:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	}
}

// ColumnRefs collects all column references in an expression.
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}
