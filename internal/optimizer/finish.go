package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// finishPlan layers aggregation, having, projection, ordering and limit
// over the join tree.
func (o *Optimizer) finishPlan(root Node, sel *sql.Select) (Node, error) {
	inScope := scope{cols: root.Columns()}

	// Expand SELECT * into explicit items.
	var items []sql.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for i, col := range root.Columns() {
			name := col
			if dot := strings.LastIndexByte(col, '.'); dot >= 0 {
				name = col[dot+1:]
			}
			items = append(items, sql.SelectItem{
				Expr:  &sql.ColumnRef{Column: col, Index: i},
				Alias: name,
			})
		}
	}

	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if sql.HasAggregate(it.Expr) {
			hasAgg = true
		}
	}

	if hasAgg {
		var err error
		root, items, err = o.buildAgg(root, sel, items, inScope)
		if err != nil {
			return nil, err
		}
	} else {
		for _, it := range items {
			if err := inScope.bind(it.Expr); err != nil {
				return nil, err
			}
		}
	}

	// Projection.
	names := make([]string, len(items))
	exprs := make([]sql.Expr, len(items))
	for i, it := range items {
		exprs[i] = it.Expr
		if it.Alias != "" {
			names[i] = strings.ToLower(it.Alias)
		} else {
			names[i] = sql.Key(it.Expr)
		}
	}
	proj := &ProjectNode{Input: root, Exprs: exprs, Names: names}
	root = proj

	// ORDER BY binds against the projection output (alias, bare column
	// name, or rendered expression text). A non-aggregate query may also
	// order by columns absent from the projection (SELECT id ... ORDER
	// BY b): those keys bind against the pre-projection input, and the
	// sort runs below the projection.
	if len(sel.OrderBy) > 0 {
		outScope := scope{cols: names}
		// First pass: bind every key against the projection output.
		outKeys := make([]SortItem, 0, len(sel.OrderBy))
		allOut := true
		for _, oi := range sel.OrderBy {
			key := oi.Expr
			if idx := matchItem(key, items, names); idx >= 0 {
				outKeys = append(outKeys, SortItem{
					Expr: &sql.ColumnRef{Column: names[idx], Index: idx}, Desc: oi.Desc})
				continue
			}
			if err := outScope.bind(key); err == nil {
				outKeys = append(outKeys, SortItem{Expr: key, Desc: oi.Desc})
				continue
			}
			allOut = false
			break
		}
		switch {
		case allOut:
			root = &SortNode{Input: root, Keys: outKeys}
		case hasAgg:
			return nil, fmt.Errorf("optimizer: ORDER BY must reference grouped output columns")
		default:
			// Some key is not in the projection: sort below the
			// projection, binding every key against the input (alias
			// keys resolve to their item's input-bound expression).
			inKeys := make([]SortItem, 0, len(sel.OrderBy))
			for _, oi := range sel.OrderBy {
				key := oi.Expr
				if idx := matchItem(key, items, names); idx >= 0 {
					inKeys = append(inKeys, SortItem{Expr: items[idx].Expr, Desc: oi.Desc})
					continue
				}
				if err := inScope.bind(key); err != nil {
					return nil, fmt.Errorf("optimizer: cannot resolve ORDER BY %s: %v", sql.String(key), err)
				}
				inKeys = append(inKeys, SortItem{Expr: key, Desc: oi.Desc})
			}
			proj.Input = &SortNode{Input: proj.Input, Keys: inKeys}
		}
	}
	if sel.Limit >= 0 {
		root = &LimitNode{Input: root, N: sel.Limit}
	}
	return root, nil
}

// matchItem finds the projection item an ORDER BY key refers to, by
// its output name or, for an aliased item, its expression's key.
func matchItem(key sql.Expr, items []sql.SelectItem, names []string) int {
	keyText := sql.Key(key)
	for i, it := range items {
		if names[i] == keyText || it.Alias != "" && sql.Key(it.Expr) == keyText {
			return i
		}
	}
	return -1
}

// buildAgg constructs the AggNode and rewrites item/having expressions
// onto its output layout: [group exprs..., agg results...].
func (o *Optimizer) buildAgg(root Node, sel *sql.Select, items []sql.SelectItem,
	inScope scope) (Node, []sql.SelectItem, error) {
	// Bind group-by expressions against the input.
	groupBy := make([]sql.Expr, len(sel.GroupBy))
	mapping := make(map[string]int) // sql.Key -> agg output position
	var names []string
	for i, g := range sel.GroupBy {
		if err := inScope.bind(g); err != nil {
			return nil, nil, err
		}
		groupBy[i] = g
		key := sql.Key(g)
		mapping[key] = i
		names = append(names, key)
	}

	// Collect distinct aggregate calls from items, having and order by.
	var aggs []AggItem
	distinctTwoPhaseBlock := false
	addAgg := func(f *sql.FuncCall) error {
		key := sql.Key(f)
		if _, dup := mapping[key]; dup {
			return nil
		}
		item := AggItem{Func: f.Name, Star: f.Star, Distinct: f.Distinct}
		if !f.Star {
			if len(f.Args) != 1 {
				return fmt.Errorf("optimizer: %s expects one argument", f.Name)
			}
			if err := inScope.bind(f.Args[0]); err != nil {
				return err
			}
			item.Arg = f.Args[0]
		}
		if f.Distinct {
			distinctTwoPhaseBlock = true
		}
		mapping[key] = len(groupBy) + len(aggs)
		names = append(names, key)
		aggs = append(aggs, item)
		return nil
	}
	collect := func(e sql.Expr) error {
		var firstErr error
		sql.Walk(e, func(n sql.Expr) bool {
			if f, ok := n.(*sql.FuncCall); ok && f.IsAggregate() {
				if err := addAgg(f); err != nil && firstErr == nil {
					firstErr = err
				}
				return false
			}
			return true
		})
		return firstErr
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, nil, err
		}
	}
	for _, oi := range sel.OrderBy {
		if sql.HasAggregate(oi.Expr) {
			if err := collect(oi.Expr); err != nil {
				return nil, nil, err
			}
		}
	}

	agg := &AggNode{Input: root, GroupBy: groupBy, Aggs: aggs,
		TwoPhase: !distinctTwoPhaseBlock, Names: names}
	agg.rows = root.EstRows() / 10
	if len(groupBy) == 0 {
		agg.rows = 1
	}
	var node Node = agg

	// Rewrite items/having/order onto the aggregate output.
	for i := range items {
		rewritten, err := rewriteOntoAgg(items[i].Expr, mapping, names)
		if err != nil {
			return nil, nil, err
		}
		items[i].Expr = rewritten
	}
	if sel.Having != nil {
		h, err := rewriteOntoAgg(sel.Having, mapping, names)
		if err != nil {
			return nil, nil, err
		}
		node = &FilterNode{Input: node, Pred: h}
	}
	for i := range sel.OrderBy {
		if sql.HasAggregate(sel.OrderBy[i].Expr) {
			r, err := rewriteOntoAgg(sel.OrderBy[i].Expr, mapping, names)
			if err != nil {
				return nil, nil, err
			}
			sel.OrderBy[i].Expr = r
		}
	}
	return node, items, nil
}

// aggName is the output name buildAgg gives a one-argument aggregate:
// its call's key.
func aggName(it AggItem) string {
	return sql.Key(&sql.FuncCall{Name: it.Func, Args: []sql.Expr{it.Arg}, Distinct: it.Distinct})
}

// rewriteOntoAgg replaces group-by expressions and aggregate calls with
// references into the aggregate output layout, rebuilding the tree.
func rewriteOntoAgg(e sql.Expr, mapping map[string]int, names []string) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if idx, ok := mapping[sql.Key(e)]; ok {
		return &sql.ColumnRef{Column: names[idx], Index: idx}, nil
	}
	switch n := e.(type) {
	case *sql.Literal:
		return n, nil
	case *sql.ColumnRef:
		// A bare column also matches a qualified group key (GROUP BY
		// o.status, SELECT status).
		suffix := "." + strings.ToLower(n.Column)
		for key, idx := range mapping {
			if strings.HasSuffix(key, suffix) {
				return &sql.ColumnRef{Column: names[idx], Index: idx}, nil
			}
		}
		return nil, fmt.Errorf("optimizer: column %s must appear in GROUP BY or an aggregate", n.Name())
	case *sql.BinaryOp:
		l, err := rewriteOntoAgg(n.L, mapping, names)
		if err != nil {
			return nil, err
		}
		r, err := rewriteOntoAgg(n.R, mapping, names)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryOp{Op: n.Op, L: l, R: r}, nil
	case *sql.UnaryOp:
		in, err := rewriteOntoAgg(n.E, mapping, names)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryOp{Op: n.Op, E: in}, nil
	case *sql.Between:
		ee, err := rewriteOntoAgg(n.E, mapping, names)
		if err != nil {
			return nil, err
		}
		lo, err := rewriteOntoAgg(n.Lo, mapping, names)
		if err != nil {
			return nil, err
		}
		hi, err := rewriteOntoAgg(n.Hi, mapping, names)
		if err != nil {
			return nil, err
		}
		return &sql.Between{E: ee, Lo: lo, Hi: hi, Not: n.Not}, nil
	case *sql.InList:
		ee, err := rewriteOntoAgg(n.E, mapping, names)
		if err != nil {
			return nil, err
		}
		out := &sql.InList{E: ee, Not: n.Not}
		for _, item := range n.Items {
			ri, err := rewriteOntoAgg(item, mapping, names)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, ri)
		}
		return out, nil
	case *sql.IsNull:
		ee, err := rewriteOntoAgg(n.E, mapping, names)
		if err != nil {
			return nil, err
		}
		return &sql.IsNull{E: ee, Not: n.Not}, nil
	case *sql.CaseExpr:
		out := &sql.CaseExpr{}
		for _, w := range n.Whens {
			c, err := rewriteOntoAgg(w.Cond, mapping, names)
			if err != nil {
				return nil, err
			}
			r, err := rewriteOntoAgg(w.Result, mapping, names)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sql.WhenClause{Cond: c, Result: r})
		}
		if n.Else != nil {
			e2, err := rewriteOntoAgg(n.Else, mapping, names)
			if err != nil {
				return nil, err
			}
			out.Else = e2
		}
		return out, nil
	default:
		return nil, fmt.Errorf("optimizer: cannot rewrite %T over aggregation", e)
	}
}
