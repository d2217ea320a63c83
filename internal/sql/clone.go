package sql

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
