package executor

import (
	"errors"
	"testing"

	"repro/internal/htap"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// Small hand-checkable cases, one per operator behaviour: each runs the
// operator, compares with the model, and spot-checks a literal value so
// the model itself is pinned. batch_test.go repeats the comparison on
// larger mixed-type data that crosses batch boundaries.

// col builds a bound column reference.
func col(idx int) sql.Expr { return &sql.ColumnRef{Column: "c", Index: idx} }

func lit(v types.Value) sql.Expr { return &sql.Literal{Val: v} }

func bin(op string, l, r sql.Expr) sql.Expr { return &sql.BinaryOp{Op: op, L: l, R: r} }

// intRows builds test rows of ints.
func intRows(vals ...[]int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, rv := range vals {
		row := make(types.Row, len(rv))
		for j, v := range rv {
			row[j] = types.Int(v)
		}
		out[i] = row
	}
	return out
}

// src is a batch source over rows, ncols wide.
func src(ncols int, rows []types.Row) *BatchesSource {
	return NewBatchRowsSource(make([]string, ncols), rows)
}

// intLess is the model predicate c[a] < c[b] over non-NULL ints.
func intLess(a, b int) rowPred {
	return func(r types.Row) bool { return !r[a].IsNull() && !r[b].IsNull() && r[a].I < r[b].I }
}

func TestRowsSourceAndCollect(t *testing.T) {
	// 1300 rows columnarize into two batches and come back unchanged.
	rows := mixedRows(1300)
	s := NewBatchRowsSource(mixedCols, rows)
	if len(s.Batches) != 2 || s.Batches[0].NumRows() != vector.DefaultSize {
		t.Fatalf("want a full batch and a remainder, got %d batches", len(s.Batches))
	}
	run(t, "source", s, rows)
}

func TestFilter(t *testing.T) {
	rows := []types.Row{{types.Int(1)}, {types.Null()}, {types.Int(5)}, {types.Int(10)}}
	got := run(t, "filter",
		&BatchFilter{Input: src(1, rows), Pred: bin(">", col(0), lit(types.Int(4)))},
		modelFilter(rows, func(r types.Row) bool { return !r[0].IsNull() && r[0].I > 4 }))
	if len(got) != 2 || got[0][0].AsInt() != 5 {
		t.Fatalf("filter = %v", got)
	}
}

func TestProject(t *testing.T) {
	rows := intRows([]int64{3, 4})
	p := &BatchProject{Input: src(2, rows),
		Exprs: []sql.Expr{bin("*", col(0), col(1)), col(0)},
		Names: []string{"prod", "a"}}
	got := run(t, "project", p, modelProject(rows,
		func(r types.Row) types.Value { return types.Int(r[0].I * r[1].I) }, at(0)))
	if got[0][0].AsInt() != 12 || got[0][1].AsInt() != 3 || p.Columns()[0] != "prod" {
		t.Fatalf("project = %v, names %v", got, p.Columns())
	}
}

func TestLimit(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{3})
	for _, n := range []int{0, 2, 3, 7, -1} { // -1 = unlimited
		got := run(t, "limit", &BatchLimit{Input: src(1, rows), N: n}, modelLimit(rows, n))
		if n == 2 && len(got) != 2 {
			t.Fatalf("limit 2 = %d rows", len(got))
		}
	}
}

func TestSortMultiKey(t *testing.T) {
	// The trailing column tells tied rows apart: ties keep input order.
	rows := intRows([]int64{1, 9, 0}, []int64{2, 1, 1}, []int64{1, 3, 2}, []int64{1, 9, 3})
	got := run(t, "sort",
		&BatchSort{Input: src(3, rows), Keys: []SortKey{{Expr: col(0)}, {Expr: col(1), Desc: true}}},
		modelSort(rows, modelKey{fn: at(0)}, modelKey{fn: at(1), desc: true}))
	assertSameRows(t, "sort literal", got,
		intRows([]int64{1, 9, 0}, []int64{1, 9, 3}, []int64{1, 3, 2}, []int64{2, 1, 1}))
}

func TestHashJoinInner(t *testing.T) {
	left := intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	right := intRows([]int64{2, 200}, []int64{3, 300}, []int64{3, 301}) // duplicate key 3
	j := &BatchHashJoin{Left: src(2, left), Right: src(2, right),
		LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}}
	got := run(t, "inner join", j, modelJoin(left, right, 2, false, equi(at(0), at(2), nil)))
	// Row layout: l.id, l.v, r.id, r.w; matches in build order.
	if len(got) != 3 || got[0][3].AsInt() != 200 || got[2][3].AsInt() != 301 || len(j.Columns()) != 4 {
		t.Fatalf("join = %v", got)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	left, right := intRows([]int64{1}, []int64{2}), intRows([]int64{2})
	got := run(t, "outer join",
		&BatchHashJoin{Left: src(1, left), Right: src(1, right),
			LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}, Outer: true},
		modelJoin(left, right, 1, true, equi(at(0), at(1), nil)))
	if len(got) != 2 || !got[0][1].IsNull() {
		t.Fatalf("unmatched row not null-extended: %v", got)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	rows := []types.Row{{types.Null()}}
	for _, outer := range []bool{false, true} {
		got := run(t, "null keys",
			&BatchHashJoin{Left: src(1, rows), Right: src(1, rows),
				LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}, Outer: outer},
			modelJoin(rows, rows, 1, outer, equi(at(0), at(1), nil)))
		if !outer && len(got) != 0 {
			t.Fatalf("NULL keys joined: %v", got)
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	left, right := intRows([]int64{1, 5}, []int64{1, 50}), intRows([]int64{1, 10})
	// Join on id with residual l.v < r.w; the outer form null-extends
	// the row whose only match the residual rejected.
	for _, outer := range []bool{false, true} {
		got := run(t, "residual join",
			&BatchHashJoin{Left: src(2, left), Right: src(2, right),
				LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)},
				Residual: bin("<", col(1), col(3)), Outer: outer},
			modelJoin(left, right, 2, outer, equi(at(0), at(2), intLess(1, 3))))
		if got[0][1].AsInt() != 5 || (outer && !got[1][3].IsNull()) {
			t.Fatalf("residual join = %v", got)
		}
	}
}

func TestNestedLoopJoinNonEqui(t *testing.T) {
	left, right := intRows([]int64{1}, []int64{5}, []int64{9}), intRows([]int64{3}, []int64{4})
	on := bin("<", col(0), col(1))
	for _, outer := range []bool{false, true} {
		got := run(t, "nl join",
			&BatchNestedLoopJoin{Left: src(1, left), Right: src(1, right), On: on, Outer: outer},
			modelJoin(left, right, 1, outer, intLess(0, 1)))
		if !outer && len(got) != 2 {
			t.Fatalf("nl join = %v", got)
		}
		if outer && (len(got) != 4 || !got[3][1].IsNull()) {
			t.Fatalf("outer nl join = %v", got)
		}
	}
}

var fiveAggs = []AggSpec{
	{Func: "COUNT", Star: true},
	{Func: "SUM", Arg: col(1)},
	{Func: "AVG", Arg: col(1)},
	{Func: "MIN", Arg: col(1)},
	{Func: "MAX", Arg: col(1)},
}

var fiveModelAggs = []modelAgg{
	{fn: "COUNT"}, {fn: "SUM", arg: at(1)}, {fn: "AVG", arg: at(1)}, {fn: "MIN", arg: at(1)}, {fn: "MAX", arg: at(1)},
}

func TestHashAggComplete(t *testing.T) {
	rows := intRows([]int64{2, 5}, []int64{1, 10}, []int64{1, 20}, []int64{2, 7})
	got := run(t, "agg",
		&BatchHashAgg{Input: src(2, rows), GroupBy: []sql.Expr{col(0)}, Aggs: fiveAggs},
		modelAggregate([][]types.Row{rows}, []rowFn{at(0)}, fiveModelAggs))
	// Groups in key order. Group 1: count 2, sum 30, avg 15, min 10, max 20.
	g1 := got[0]
	if len(got) != 2 || g1[0].AsInt() != 1 || g1[1].AsInt() != 2 || g1[2].AsInt() != 30 ||
		g1[3].AsFloat() != 15 || g1[4].AsInt() != 10 || g1[5].AsInt() != 20 {
		t.Fatalf("agg = %v", got)
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	got := run(t, "empty global agg",
		&BatchHashAgg{Input: src(1, nil), Aggs: []AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: col(0)}}},
		modelAggregate(nil, nil, []modelAgg{{fn: "COUNT"}, {fn: "SUM", arg: at(0)}}))
	if len(got) != 1 || got[0][0].AsInt() != 0 || !got[0][1].IsNull() {
		t.Fatalf("empty aggregates = %v", got)
	}
	// A grouped aggregate over no rows has no groups.
	run(t, "empty grouped agg",
		&BatchHashAgg{Input: src(1, nil), GroupBy: []sql.Expr{col(0)}, Aggs: []AggSpec{{Func: "COUNT", Star: true}}},
		modelAggregate(nil, []rowFn{at(0)}, []modelAgg{{fn: "COUNT"}}))
}

func TestHashAggDistinct(t *testing.T) {
	rows := []types.Row{{types.Int(5)}, {types.Int(5)}, {types.Null()}, {types.Int(7)}, {types.Null()}}
	got := run(t, "distinct agg",
		&BatchHashAgg{Input: src(1, rows), Aggs: []AggSpec{
			{Func: "COUNT", Arg: col(0), Distinct: true},
			{Func: "SUM", Arg: col(0), Distinct: true},
			{Func: "AVG", Arg: col(0), Distinct: true},
		}},
		modelAggregate([][]types.Row{rows}, nil, []modelAgg{
			{fn: "COUNT", arg: at(0), distinct: true},
			{fn: "SUM", arg: at(0), distinct: true},
			{fn: "AVG", arg: at(0), distinct: true},
		}))
	if got[0][0].AsInt() != 2 || got[0][1].AsInt() != 12 || got[0][2].AsFloat() != 6 {
		t.Fatalf("distinct agg = %v", got)
	}
}

// partials builds one Partial-mode aggregate per shard.
func partials(shards [][]types.Row, ncols int, group []sql.Expr, aggs []AggSpec) []BatchOperator {
	var out []BatchOperator
	for _, sh := range shards {
		out = append(out, &BatchHashAgg{Input: src(ncols, sh), GroupBy: group, Aggs: aggs, Mode: AggPartial})
	}
	return out
}

// TestPartialFinalAggEquivalence is the MPP invariant: per-fragment
// partials plus a final merge equal the model's shard-by-shard merge,
// and (on ints, where fold order cannot matter) the single-phase result.
func TestPartialFinalAggEquivalence(t *testing.T) {
	all := intRows(
		[]int64{1, 10}, []int64{2, 5}, []int64{1, 20},
		[]int64{2, 7}, []int64{1, 12}, []int64{3, 100})
	shards := [][]types.Row{{all[0], all[3]}, {all[1], all[4]}, {all[2], all[5]}}
	group := []sql.Expr{col(0)}
	got := run(t, "partial→final",
		&BatchHashAgg{Input: &BatchGather{Inputs: partials(shards, 2, group, fiveAggs)},
			GroupBy: group, Aggs: fiveAggs, Mode: AggFinal},
		modelAggregate(shards, []rowFn{at(0)}, fiveModelAggs))
	assertSameRows(t, "two-phase vs single-phase", got,
		modelAggregate([][]types.Row{all}, []rowFn{at(0)}, fiveModelAggs))
}

func TestGatherMergesInputs(t *testing.T) {
	a, b := intRows([]int64{1}, []int64{2}), intRows([]int64{3})
	run(t, "gather",
		&BatchGather{Cols: []string{"v"}, Inputs: []BatchOperator{src(1, a), src(1, nil), src(1, b)}},
		append(append([]types.Row{}, a...), b...))
}

func TestFragmentsOnScheduler(t *testing.T) {
	sched := htap.NewScheduler(htap.Config{})
	defer sched.Stop()
	// Three scan fragments with partial aggregation, gathered and
	// final-aggregated — a miniature MPP plan.
	aggs := []AggSpec{{Func: "SUM", Arg: col(1)}, {Func: "COUNT", Star: true}}
	group := []sql.Expr{col(0)}
	var shards [][]types.Row
	for i := int64(1); i <= 3; i++ {
		shards = append(shards, intRows([]int64{1, i}, []int64{2, 10 * i}))
	}
	var assignments []BatchFragmentAssignment
	for _, frag := range partials(shards, 2, group, aggs) {
		assignments = append(assignments, BatchFragmentAssignment{Op: frag, Sched: sched})
	}
	got := run(t, "mpp agg",
		&BatchHashAgg{Input: RunBatchFragments(htap.GroupAP, assignments, 0),
			GroupBy: group, Aggs: aggs, Mode: AggFinal},
		modelAggregate(shards, []rowFn{at(0)}, []modelAgg{{fn: "SUM", arg: at(1)}, {fn: "COUNT"}}))
	// Group 1: 1+2+3 = 6; group 2: 10+20+30 = 60. Counts 3 each.
	assertSameRows(t, "mpp agg literal", got, intRows([]int64{1, 6, 3}, []int64{2, 60, 3}))
}

func TestFragmentsWithoutScheduler(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2})
	run(t, "no-scheduler fragments",
		RunBatchFragments(htap.GroupTP, []BatchFragmentAssignment{{Op: src(1, rows)}}, 0), rows)
}

func TestFragmentErrorSurfacesThroughGather(t *testing.T) {
	want := errors.New("shard unreachable")
	bad := &BatchCallbackSource{Cols: []string{"v"}, Fetch: func() (*vector.Batch, error) { return nil, want }}
	gather := RunBatchFragments(htap.GroupTP, []BatchFragmentAssignment{{Op: bad}}, 0)
	if _, err := CollectBatch(gather); !errors.Is(err, want) {
		t.Fatalf("fragment error swallowed: %v", err)
	}
}

func TestCallbackSourceBatches(t *testing.T) {
	calls := int64(0)
	fetch := func() (*vector.Batch, error) {
		calls++
		switch {
		case calls > 4:
			return nil, nil // drained
		case calls == 2:
			return vector.NewBatch(1), nil // empty batches are skipped
		}
		return vector.FromRows(intRows([]int64{calls}, []int64{calls * 10}), 1), nil
	}
	run(t, "callback source", &BatchCallbackSource{Cols: []string{"v"}, Fetch: fetch},
		intRows([]int64{1}, []int64{10}, []int64{3}, []int64{30}, []int64{4}, []int64{40}))
}
