package optimizer

import (
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
