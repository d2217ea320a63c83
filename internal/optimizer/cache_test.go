package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// litPlan builds a tiny plan whose root projects the given literal
// values, returning the plan and its parameter nodes in fingerprint
// order. No table metadata is needed: the cache's clone/instantiate path
// treats a ProjectNode like any other parameterized node.
func litPlan(vals ...int64) (*Plan, []*sql.Literal) {
	params := make([]*sql.Literal, len(vals))
	exprs := make([]sql.Expr, len(vals))
	names := make([]string, len(vals))
	for i, v := range vals {
		lit := &sql.Literal{Val: types.Int(v)}
		params[i] = lit
		exprs[i] = lit
		names[i] = "c"
	}
	root := &ProjectNode{Input: &LimitNode{Input: &ProjectNode{}, N: 1}, Exprs: exprs, Names: names}
	return &Plan{Root: root}, params
}

// TestLookupParamCountMismatchEvicts is the regression test for the
// plan-cache arity bug: two variants of one statement that share a
// fingerprint but carry different literal counts must never instantiate
// each other's skeleton. A mismatched lookup is a miss AND evicts the
// slot, so the follow-up Store/Lookup cycle for the new arity works.
func TestLookupParamCountMismatchEvicts(t *testing.T) {
	pc := NewPlanCache(8)
	const fp = "SELECT ?,? FROM t" // same key for both arities

	plan2, params2 := litPlan(1, 2)
	pc.Store(fp, 1, plan2, params2)
	if pc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pc.Len())
	}

	// Variant with three literals: same fingerprint, different arity.
	_, params3 := litPlan(3, 4, 5)
	if got := pc.Lookup(fp, 1, params3); got != nil {
		t.Fatalf("arity-mismatched Lookup returned a plan: %+v", got)
	}
	if pc.Len() != 0 {
		t.Fatalf("slot not evicted on arity mismatch: Len = %d", pc.Len())
	}
	if n := pc.ArityEvictions(); n != 1 {
		t.Fatalf("ArityEvictions = %d, want 1", n)
	}

	// The new arity can now be cached and served.
	plan3, params3 := litPlan(3, 4, 5)
	pc.Store(fp, 1, plan3, params3)
	_, fresh := litPlan(6, 7, 8)
	got := pc.Lookup(fp, 1, fresh)
	if got == nil {
		t.Fatal("Lookup after re-store missed")
	}
	proj := got.Root.(*ProjectNode)
	if len(proj.Exprs) != 3 {
		t.Fatalf("instantiated plan has %d exprs, want 3", len(proj.Exprs))
	}
	for i, want := range []int64{6, 7, 8} {
		if v := proj.Exprs[i].(*sql.Literal).Val.I; v != want {
			t.Fatalf("param %d = %d, want %d", i, v, want)
		}
	}

	hits, misses := pc.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("Stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestLookupEpochMismatchEvicts pins the DDL-staleness eviction the
// arity path shares code with.
func TestLookupEpochMismatchEvicts(t *testing.T) {
	pc := NewPlanCache(8)
	plan, params := litPlan(1)
	pc.Store("fp", 1, plan, params)
	_, p2 := litPlan(2)
	if got := pc.Lookup("fp", 2, p2); got != nil {
		t.Fatal("stale-epoch Lookup returned a plan")
	}
	if pc.Len() != 0 {
		t.Fatal("stale-epoch slot not evicted")
	}
	if n := pc.ArityEvictions(); n != 0 {
		t.Fatalf("epoch eviction miscounted as arity eviction: %d", n)
	}
}

// TestShapeSlots: a shape bound to a fingerprint's skeleton serves the
// skeleton with the shape's lifted literals (a folded minus sign
// included), counts a hit but never a miss, and is dropped with a stale
// epoch like any slot.
func TestShapeSlots(t *testing.T) {
	shapeOf := func(src string) (*sql.Shape, []*sql.Literal, string) {
		var sh sql.Shape
		if !sh.Of(src) {
			t.Fatalf("%q not shaped", src)
		}
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fp, params, ok := sql.FingerprintSelect(stmt.(*sql.Select))
		if !ok {
			t.Fatalf("%q not fingerprinted", src)
		}
		return &sh, params, fp
	}
	pc := NewPlanCache(0) // room for both slots whichever shards they hash to
	sh, params, fp := shapeOf("SELECT a FROM t WHERE x = -3 AND y = 'p'")
	exprs := make([]sql.Expr, len(params))
	for i, p := range params {
		exprs[i] = p
	}
	pc.Store(fp, 1, &Plan{Root: &ProjectNode{Input: &ProjectNode{}, Exprs: exprs, Names: []string{"x", "y"}}}, params)
	b, ok := sql.BindShape(sh, params)
	if !ok {
		t.Fatal("shape does not bind")
	}
	pc.BindShape(string(sh.Key), "no such fingerprint", 1, b)
	if pc.Len() != 1 {
		t.Fatalf("binding to a missing fingerprint filed a slot: Len = %d", pc.Len())
	}
	pc.BindShape(string(sh.Key), fp, 1, b)
	if pc.Len() != 2 {
		t.Fatalf("Len = %d after binding, want 2 (the shape shares the cache's bound)", pc.Len())
	}

	var next sql.Shape
	next.Of("select a from t where x = -8 and y = 'q'")
	got := pc.LookupShape(next.Key, 1, next.Lits)
	if got == nil {
		t.Fatal("LookupShape missed a bound shape")
	}
	proj := got.Root.(*ProjectNode)
	if x, y := proj.Exprs[0].(*sql.Literal).Val, proj.Exprs[1].(*sql.Literal).Val; x.I != -8 || y.S != "q" {
		t.Fatalf("bound x = %v, y = %v, want -8 and 'q'", x, y)
	}
	if pc.LookupShape(next.Key, 2, next.Lits) != nil {
		t.Fatal("stale-epoch LookupShape returned a plan")
	}
	if pc.Len() != 1 {
		t.Fatalf("stale shape slot not evicted: Len = %d", pc.Len())
	}
	if hits, misses := pc.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("Stats = (%d hits, %d misses), want (1, 0): a shape miss is counted by the parse path", hits, misses)
	}
}

// TestCopyOnWriteHits runs 1 000 plan-cache hits with varied literals
// (duplicate IN-list keys among them) through both lookups and checks
// that each instance plans like a cold PlanSelect of its statement,
// routes an IN list to its shards in ascending order, copies every node
// that holds a parameter (so it shares none with the skeleton or with
// another instance) and shares the rest; and that the skeleton still
// renders as it did when it was stored.
func TestCopyOnWriteHits(t *testing.T) {
	cat := newCatalog(t)
	opt := New(cat, cat, Options{})
	templates := []string{
		"SELECT name FROM users WHERE id IN (%d, %d)",
		"SELECT name FROM users WHERE id IN (%d, %d, %d, 1, %d)",
		"SELECT name, balance * %d AS b FROM users WHERE id = %d AND balance > %d",
		"SELECT city, SUM(balance + %d) AS s FROM users WHERE city = 'c%d' AND balance < %d GROUP BY city ORDER BY city LIMIT 3",
		"SELECT u.name, o.o_total FROM users u JOIN orders o ON u.id = o.o_user WHERE o.o_id IN (%d, %d, %d) AND u.balance > %d",
	}
	rng := rand.New(rand.NewSource(1))
	stmt := func(tmpl string) string {
		args := make([]any, strings.Count(tmpl, "%d"))
		for i := range args {
			args[i] = rng.Intn(6) // a small range: IN lists repeat keys
		}
		return fmt.Sprintf(tmpl, args...)
	}
	parse := func(q string) (*sql.Select, string, []*sql.Literal) {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sql.Select)
		fp, params, ok := sql.FingerprintSelect(sel)
		if !ok {
			t.Fatalf("%q not fingerprinted", q)
		}
		return sel, fp, params
	}

	pc := NewPlanCache(0)
	type cached struct {
		fp, shapeKey, explain string
		skel                  *Plan
		skelPaths             []any
	}
	var all []cached
	for _, tmpl := range templates {
		q := stmt(tmpl)
		sel, fp, params := parse(q)
		live, err := opt.PlanSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		pc.Store(fp, 1, live, params)
		for _, p := range params {
			if p.Slot != 0 {
				t.Fatalf("%q: Store left Slot %d on the statement's literal", q, p.Slot)
			}
		}
		var sh sql.Shape
		if !sh.Of(q) {
			t.Fatalf("%q not shaped", q)
		}
		b, ok := sql.BindShape(&sh, params)
		if !ok {
			t.Fatalf("%q: shape does not bind", q)
		}
		pc.BindShape(string(sh.Key), fp, 1, b)
		skel := pc.shardFor(fp).byFP[fp].Value.(*cacheSlot).plan
		owned := map[any]bool{}
		walkNodes(skel.Root, func(n Node) { owned[n] = true })
		walkExprs(skel.Root, func(e sql.Expr) { owned[e] = true })
		walkNodes(live.Root, func(n Node) {
			if owned[n] {
				t.Fatalf("%q: the skeleton shares plan node %T with the stored plan", q, n)
			}
		})
		walkExprs(live.Root, func(e sql.Expr) {
			if owned[e] {
				t.Fatalf("%q: the skeleton shares %T with the stored plan's statement", q, e)
			}
		})
		all = append(all, cached{fp: fp, shapeKey: string(sh.Key), explain: render(skel), skel: skel,
			skelPaths: paramPaths(skel, func(l *sql.Literal) bool { return l.Slot > 0 })})
	}

	seen := map[any]bool{}
	var instances []*Plan // kept live, so no pointer is reused
	for i := 0; i < 1000; i++ {
		c := all[i%len(all)]
		q := stmt(templates[i%len(templates)])
		switch i {
		case 0:
			q = "SELECT name FROM users WHERE id IN (1, 1)"
		case 1:
			q = "SELECT name FROM users WHERE id IN (2, 2, 3, 1, 2)"
		}
		sel, fp, params := parse(q)
		if fp != c.fp {
			t.Fatalf("%q: fingerprint %q, want %q", q, fp, c.fp)
		}
		var inst *Plan
		if i%2 == 0 {
			inst = pc.Lookup(fp, 1, params)
		} else {
			var sh sql.Shape
			sh.Of(q)
			inst = pc.LookupShape(sh.Key, 1, sh.Lits)
		}
		if inst == nil {
			t.Fatalf("%q missed", q)
		}
		instances = append(instances, inst)
		cold, err := opt.PlanSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		// The header's cost and class are the skeleton's: a hit
		// re-routes, it does not re-cost.
		_, got, _ := strings.Cut(render(inst), "\n")
		_, want, _ := strings.Cut(render(cold), "\n")
		if got != want {
			t.Fatalf("%q: hit renders\n%s\ncold plan renders\n%s", q, got, want)
		}
		walkScans(inst.Root, func(s *ScanNode) {
			if s.PointLookups == nil {
				return
			}
			if in, ok := s.Filter.(*sql.InList); ok {
				var keys [][]byte // each distinct key once, first seen first
				for _, it := range in.Items {
					k := types.EncodeKey(nil, it.(*sql.Literal).Val)
					if !slices.ContainsFunc(keys, func(seen []byte) bool { return string(seen) == string(k) }) {
						keys = append(keys, k)
					}
				}
				if !slices.EqualFunc(keys, s.PointLookups, func(a, b []byte) bool { return string(a) == string(b) }) {
					t.Fatalf("%q: point lookups %x, want %x", q, s.PointLookups, keys)
				}
			}
			var want []int
			for _, pk := range s.PointLookups {
				want = append(want, s.Table.ShardOfPK(pk))
			}
			slices.Sort(want)
			if want = slices.Compact(want); !slices.Equal(s.Shards, want) {
				t.Fatalf("%q: shards %v, want %v (ascending)", q, s.Shards, want)
			}
		})

		skelLits := map[*sql.Literal]bool{}
		walkExprs(c.skel.Root, func(e sql.Expr) {
			if l, ok := e.(*sql.Literal); ok {
				skelLits[l] = true
			}
		})
		paths := paramPaths(inst, func(l *sql.Literal) bool { return !skelLits[l] })
		if len(paths) != len(c.skelPaths) {
			t.Fatalf("%q: %d parameter-holding nodes, skeleton has %d", q, len(paths), len(c.skelPaths))
		}
		for j, p := range paths {
			if p == c.skelPaths[j] || seen[p] {
				t.Fatalf("%q: parameter-holding node %d (%T) is shared", q, j, p)
			}
			seen[p] = true
		}
		skelRefs := map[*sql.ColumnRef]bool{}
		walkExprs(c.skel.Root, func(e sql.Expr) {
			if r, ok := e.(*sql.ColumnRef); ok {
				skelRefs[r] = true
			}
		})
		walkExprs(inst.Root, func(e sql.Expr) {
			if r, ok := e.(*sql.ColumnRef); ok && !skelRefs[r] {
				t.Fatalf("%q: column reference %s copied, not shared", q, r.Name())
			}
		})
	}
	for _, c := range all {
		if got := render(c.skel); got != c.explain {
			t.Fatalf("skeleton changed after 1 000 hits:\n%s\nwas\n%s", got, c.explain)
		}
	}
}

// render is a plan's EXPLAIN plus every expression it holds, node by
// node in pre-order, a column reference by the position it is bound to
// (its name may quote the literals of the statement that was planned).
func render(p *Plan) string {
	var b strings.Builder
	b.WriteString(p.Explain())
	walkNodes(p.Root, func(n Node) {
		for _, e := range nodeExprs(n) {
			sql.Walk(e, func(e sql.Expr) bool {
				switch x := e.(type) {
				case *sql.ColumnRef:
					fmt.Fprintf(&b, " $%d", x.Index)
				case *sql.Literal:
					fmt.Fprintf(&b, " %s", sql.String(x))
				case *sql.BinaryOp:
					fmt.Fprintf(&b, " %s", x.Op)
				default:
					fmt.Fprintf(&b, " %T", x)
				}
				return true
			})
			b.WriteByte('\n')
		}
	})
	return b.String()
}

func walkNodes(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		walkNodes(c, visit)
	}
}

func walkScans(n Node, visit func(*ScanNode)) {
	walkNodes(n, func(n Node) {
		if s, ok := n.(*ScanNode); ok {
			visit(s)
		}
	})
}

func walkExprs(n Node, visit func(sql.Expr)) {
	walkNodes(n, func(n Node) {
		for _, e := range nodeExprs(n) {
			sql.Walk(e, func(e sql.Expr) bool { visit(e); return true })
		}
	})
}

// nodeExprs lists the expressions a plan node holds, in a fixed order.
func nodeExprs(n Node) []sql.Expr {
	switch x := n.(type) {
	case *ScanNode:
		return []sql.Expr{x.Filter}
	case *JoinNode:
		return append(append([]sql.Expr{x.On}, x.LeftKeys...), x.RightKeys...)
	case *AggNode:
		out := append([]sql.Expr(nil), x.GroupBy...)
		for _, a := range x.Aggs {
			out = append(out, a.Arg)
		}
		return out
	case *FilterNode:
		return []sql.Expr{x.Pred}
	case *ProjectNode:
		return x.Exprs
	case *SortNode:
		var out []sql.Expr
		for _, k := range x.Keys {
			out = append(out, k.Expr)
		}
		return out
	}
	return nil
}

// paramPaths lists, in a fixed pre-order, every plan node and
// expression node that holds a parameter (isParam) at or below it.
func paramPaths(p *Plan, isParam func(*sql.Literal) bool) []any {
	var out []any
	var expr func(e sql.Expr) bool
	expr = func(e sql.Expr) bool {
		at := len(out)
		out = append(out, e)
		held := false
		switch x := e.(type) {
		case *sql.Literal:
			held = isParam(x)
		default:
			sql.Walk(e, func(c sql.Expr) bool {
				if c == e {
					return true
				}
				if expr(c) {
					held = true
				}
				return false
			})
		}
		if !held {
			out = out[:at]
		}
		return held
	}
	var node func(n Node) bool
	node = func(n Node) bool {
		at := len(out)
		out = append(out, n)
		held := false
		for _, e := range nodeExprs(n) {
			if e != nil && expr(e) {
				held = true
			}
		}
		for _, c := range n.Children() {
			if node(c) {
				held = true
			}
		}
		if !held {
			out = out[:at]
		}
		return held
	}
	node(p.Root)
	return out
}
