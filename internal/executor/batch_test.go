package executor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/htap"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// mixedRows builds a deterministic dataset mixing ints, floats, strings
// and NULLs — the shapes the typed filter/agg kernels special-case.
func mixedRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{
			types.Int(int64(i % 7)),
			types.Float(float64(i%50) * 1.5),
			types.Str(fmt.Sprintf("s%d", i%5)),
			types.Int(int64(i)),
		}
		if i%11 == 0 {
			r[0] = types.Null()
		}
		if i%13 == 0 {
			r[1] = types.Null()
		}
		rows[i] = r
	}
	return rows
}

var mixedCols = []string{"c0", "c1", "c2", "c3"}

// Model-side accessors for mixedRows' columns: a comparison involving
// NULL is never true.
func c0(r types.Row, ok func(int64) bool) bool   { return !r[0].IsNull() && ok(r[0].I) }
func c1(r types.Row, ok func(float64) bool) bool { return !r[1].IsNull() && ok(r[1].F) }

func TestBatchFilterEquivalence(t *testing.T) {
	rows := mixedRows(3000)
	cases := []struct {
		name string
		pred sql.Expr
		keep rowPred
	}{
		{"int-eq", bin("=", col(0), lit(types.Int(3))),
			func(r types.Row) bool { return c0(r, func(v int64) bool { return v == 3 }) }},
		{"int-ne", bin("<>", col(0), lit(types.Int(3))),
			func(r types.Row) bool { return c0(r, func(v int64) bool { return v != 3 }) }},
		{"int-lt-float", bin("<", col(0), lit(types.Float(3.5))),
			func(r types.Row) bool { return c0(r, func(v int64) bool { return float64(v) < 3.5 }) }},
		{"float-ge", bin(">=", col(1), lit(types.Float(30))),
			func(r types.Row) bool { return c1(r, func(v float64) bool { return v >= 30 }) }},
		{"float-le-int", bin("<=", col(1), lit(types.Int(40))),
			func(r types.Row) bool { return c1(r, func(v float64) bool { return v <= 40 }) }},
		{"str-eq", bin("=", col(2), lit(types.Str("s3"))),
			func(r types.Row) bool { return r[2].S == "s3" }},
		{"str-gt", bin(">", col(2), lit(types.Str("s2"))),
			func(r types.Row) bool { return r[2].S > "s2" }},
		{"lit-left", bin(">", lit(types.Int(4)), col(0)),
			func(r types.Row) bool { return c0(r, func(v int64) bool { return 4 > v }) }},
		{"and-chain", bin("AND", bin(">", col(3), lit(types.Int(10))), bin("<=", col(0), lit(types.Int(5)))),
			func(r types.Row) bool { return r[3].I > 10 && c0(r, func(v int64) bool { return v <= 5 }) }},
		{"between", &sql.Between{E: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Int(5))},
			func(r types.Row) bool { return c0(r, func(v int64) bool { return v >= 2 && v <= 5 }) }},
		// NOT BETWEEN negates a two-valued BETWEEN: a NULL operand passes.
		{"not-between", &sql.Between{E: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Int(5)), Not: true},
			func(r types.Row) bool { return !c0(r, func(v int64) bool { return v >= 2 && v <= 5 }) }},
		// BETWEEN bounds compare with NULL sorting first: a NULL low
		// bound is always met, a NULL high bound never.
		{"between-null-lo", &sql.Between{E: col(0), Lo: lit(types.Null()), Hi: lit(types.Int(5))},
			func(r types.Row) bool { return c0(r, func(v int64) bool { return v <= 5 }) }},
		{"between-null-hi", &sql.Between{E: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Null())},
			func(types.Row) bool { return false }},
		{"is-null", &sql.IsNull{E: col(0)},
			func(r types.Row) bool { return r[0].IsNull() }},
		{"is-not-null", &sql.IsNull{E: col(0), Not: true},
			func(r types.Row) bool { return !r[0].IsNull() }},
		{"null-literal", bin("=", col(0), lit(types.Null())),
			func(types.Row) bool { return false }},
		{"col-col", bin("<", col(0), col(3)), // residual path
			func(r types.Row) bool { return c0(r, func(v int64) bool { return v < r[3].I }) }},
		{"or-residual", bin("OR", bin("=", col(0), lit(types.Int(1))), bin("=", col(2), lit(types.Str("s4")))),
			func(r types.Row) bool { return c0(r, func(v int64) bool { return v == 1 }) || r[2].S == "s4" }},
	}
	for _, tc := range cases {
		run(t, "filter/"+tc.name,
			&BatchFilter{Input: NewBatchRowsSource(mixedCols, rows), Pred: tc.pred},
			modelFilter(rows, tc.keep))
	}
	// A filter over an already-filtered batch refines its selection.
	run(t, "filter/stacked",
		&BatchFilter{Pred: cases[0].pred,
			Input: &BatchFilter{Input: NewBatchRowsSource(mixedCols, rows), Pred: cases[3].pred}},
		modelFilter(modelFilter(rows, cases[3].keep), cases[0].keep))
}

func TestBatchProjectEquivalence(t *testing.T) {
	rows := mixedRows(2000)
	run(t, "project/exprs",
		&BatchProject{Input: NewBatchRowsSource(mixedCols, rows),
			Exprs: []sql.Expr{bin("*", col(1), col(3)), bin("+", col(3), lit(types.Int(1))), col(2)},
			Names: []string{"p", "q", "c2"}},
		modelProject(rows,
			func(r types.Row) types.Value {
				if r[1].IsNull() {
					return types.Null()
				}
				return types.Float(r[1].F * float64(r[3].I))
			},
			func(r types.Row) types.Value { return types.Int(r[3].I + 1) },
			at(2)))
	// All-column-ref projections take the zero-copy view path; under a
	// filter the view shares the selection vector.
	keep := func(r types.Row) bool { return c0(r, func(v int64) bool { return v == 3 }) }
	run(t, "project/colrefs",
		&BatchProject{Exprs: []sql.Expr{col(2), col(0)}, Names: []string{"c2", "c0"},
			Input: &BatchFilter{Input: NewBatchRowsSource(mixedCols, rows), Pred: bin("=", col(0), lit(types.Int(3)))}},
		modelProject(modelFilter(rows, keep), at(2), at(0)))
}

func TestBatchSortLimitEquivalence(t *testing.T) {
	rows := mixedRows(2500) // c0 has 7 values + NULL, c1 50: ties everywhere
	run(t, "sort",
		&BatchSort{Input: NewBatchRowsSource(mixedCols, rows),
			Keys: []SortKey{{Expr: col(0)}, {Expr: col(1), Desc: true}}},
		modelSort(rows, modelKey{fn: at(0)}, modelKey{fn: at(1), desc: true}))
	for _, n := range []int{0, 1, 1000, 1024, 1500, 5000} {
		run(t, fmt.Sprintf("limit-%d", n),
			&BatchLimit{Input: NewBatchRowsSource(mixedCols, rows), N: n}, modelLimit(rows, n))
	}
	// Limit cutting inside a filtered batch truncates its selection.
	keep := func(r types.Row) bool { return c0(r, func(v int64) bool { return v == 3 }) }
	run(t, "limit-after-filter",
		&BatchLimit{N: 100, Input: &BatchFilter{Input: NewBatchRowsSource(mixedCols, rows),
			Pred: bin("=", col(0), lit(types.Int(3)))}},
		modelLimit(modelFilter(rows, keep), 100))
}

// joinRight is a small build side with NULL, duplicate and unmatched
// keys.
func joinRight() []types.Row {
	var right []types.Row
	for i := 0; i < 40; i++ {
		k := types.Int(int64(i % 9)) // keys 7,8 never match mixedRows' c0
		if i%10 == 0 {
			k = types.Null()
		}
		right = append(right, types.Row{k, types.Int(int64(i * 40))})
	}
	return right
}

func TestBatchHashJoinEquivalence(t *testing.T) {
	left := mixedRows(1700) // NULL keys at i%11
	right := joinRight()
	rcols := []string{"k", "v"}
	residual := bin(">", col(3), col(5)) // l.c3 > r.v in the joined layout
	residualModel := func(j types.Row) bool { return j[3].I > j[5].I }
	for _, outer := range []bool{false, true} {
		run(t, fmt.Sprintf("join/outer=%v", outer),
			&BatchHashJoin{Left: NewBatchRowsSource(mixedCols, left), Right: NewBatchRowsSource(rcols, right),
				LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}, Outer: outer},
			modelJoin(left, right, 2, outer, equi(at(0), at(4), nil)))
		run(t, fmt.Sprintf("join/residual/outer=%v", outer),
			&BatchHashJoin{Left: NewBatchRowsSource(mixedCols, left), Right: NewBatchRowsSource(rcols, right),
				LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}, Residual: residual, Outer: outer},
			modelJoin(left, right, 2, outer, equi(at(0), at(4), residualModel)))
	}
	// Expression keys (non-colref) exercise the scratch-eval probe path;
	// k+1 = k'+1 matches exactly when k = k'.
	plus1 := []sql.Expr{bin("+", col(0), lit(types.Int(1)))}
	run(t, "join/expr-keys",
		&BatchHashJoin{Left: NewBatchRowsSource(mixedCols, left), Right: NewBatchRowsSource(rcols, right),
			LeftKeys: plus1, RightKeys: plus1},
		modelJoin(left, right, 2, false, equi(at(0), at(4), nil)))
}

func TestBatchNestedLoopJoin(t *testing.T) {
	left := mixedRows(1300) // two left batches
	right := joinRight()
	rcols := []string{"k", "v"}
	on := bin("<", col(0), col(4)) // l.c0 < r.k: NULL on either side never matches
	onModel := func(j types.Row) bool { return !j[0].IsNull() && !j[4].IsNull() && j[0].I < j[4].I }
	all := func(types.Row) bool { return true }
	for _, outer := range []bool{false, true} {
		label := fmt.Sprintf("nl/outer=%v", outer)
		nl := func(l, r []types.Row, on sql.Expr) *BatchNestedLoopJoin {
			return &BatchNestedLoopJoin{Left: NewBatchRowsSource(mixedCols, l),
				Right: NewBatchRowsSource(rcols, r), On: on, Outer: outer}
		}
		run(t, label, nl(left, right, on), modelJoin(left, right, 2, outer, onModel))
		run(t, label+"/empty-right", nl(left, nil, on), modelJoin(left, nil, 2, outer, onModel))
		run(t, label+"/empty-left", nl(nil, right, on), nil)
		run(t, label+"/cross", nl(left[:100], right, nil), modelJoin(left[:100], right, 2, outer, all))
	}
	// No output batch outgrows DefaultSize pairs by more than one left
	// row's matches, however large the product.
	j := &BatchNestedLoopJoin{Left: NewBatchRowsSource(mixedCols, left), Right: NewBatchRowsSource(rcols, right)}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	total := 0
	for {
		b, err := j.NextBatch()
		if errors.Is(err, ErrEOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := b.NumRows(); n > vector.DefaultSize+len(right) {
			t.Fatalf("output batch of %d rows", n)
		}
		total += b.NumRows()
		b.Release()
	}
	if total != len(left)*len(right) {
		t.Fatalf("cross product %d rows, want %d", total, len(left)*len(right))
	}
}

var (
	mixedAggs = []AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "COUNT", Arg: col(1)},
		{Func: "SUM", Arg: col(1)},
		{Func: "SUM", Arg: col(3)},
		{Func: "AVG", Arg: col(1)},
		{Func: "MIN", Arg: col(3)},
		{Func: "MAX", Arg: col(1)},
		{Func: "MIN", Arg: col(2)},
		{Func: "SUM", Arg: bin("*", col(1), col(3))}, // complex arg
		{Func: "COUNT", Arg: col(2), Distinct: true},
	}
	mixedModelAggs = []modelAgg{
		{fn: "COUNT"},
		{fn: "COUNT", arg: at(1)},
		{fn: "SUM", arg: at(1)},
		{fn: "SUM", arg: at(3)},
		{fn: "AVG", arg: at(1)},
		{fn: "MIN", arg: at(3)},
		{fn: "MAX", arg: at(1)},
		{fn: "MIN", arg: at(2)},
		{fn: "SUM", arg: func(r types.Row) types.Value {
			if r[1].IsNull() {
				return types.Null()
			}
			return types.Float(r[1].F * float64(r[3].I))
		}},
		{fn: "COUNT", arg: at(2), distinct: true},
	}
)

// TestBatchHashAggEquivalence: float sums fold in row order, so the
// engine's sums equal the model's bit for bit; groups (NULL key
// included) emit in key order.
func TestBatchHashAggEquivalence(t *testing.T) {
	rows := mixedRows(3100)
	shards := [][]types.Row{rows}
	run(t, "agg/grouped",
		&BatchHashAgg{Input: NewBatchRowsSource(mixedCols, rows),
			GroupBy: []sql.Expr{col(0), col(2)}, Aggs: mixedAggs},
		modelAggregate(shards, []rowFn{at(0), at(2)}, mixedModelAggs))
	// Expression group keys evaluate on the scratch row.
	run(t, "agg/expr-group",
		&BatchHashAgg{Input: NewBatchRowsSource(mixedCols, rows),
			GroupBy: []sql.Expr{bin("+", col(0), lit(types.Int(1)))}, Aggs: mixedAggs},
		modelAggregate(shards, []rowFn{func(r types.Row) types.Value {
			if r[0].IsNull() {
				return types.Null()
			}
			return types.Int(r[0].I + 1)
		}}, mixedModelAggs))
	// Global aggregates: DISTINCT takes the boxed path, the rest the
	// fused kernels.
	run(t, "agg/global", &BatchHashAgg{Input: NewBatchRowsSource(mixedCols, rows), Aggs: mixedAggs},
		modelAggregate(shards, nil, mixedModelAggs))
	run(t, "agg/global-fused", &BatchHashAgg{Input: NewBatchRowsSource(mixedCols, rows), Aggs: mixedAggs[:8]},
		modelAggregate(shards, nil, mixedModelAggs[:8]))
	// Empty input: the global group must still emit one row.
	run(t, "agg/empty-global", &BatchHashAgg{Input: NewBatchRowsSource(mixedCols, nil), Aggs: mixedAggs},
		modelAggregate(nil, nil, mixedModelAggs))
}

// TestBatchTwoPhaseAggEquivalence chains partial fragments into a final
// merge — the MPP shape. Float sums fold within each shard, then across
// shards in gather order.
func TestBatchTwoPhaseAggEquivalence(t *testing.T) {
	rows := mixedRows(2600)
	shards := [][]types.Row{rows[:900], rows[900:1800], rows[1800:]}
	group := []sql.Expr{col(0)}
	aggs := mixedAggs[:9] // DISTINCT does not split into phases
	for _, g := range []struct {
		label string
		exprs []sql.Expr
		fns   []rowFn
		final []sql.Expr
	}{
		{"two-phase/grouped", group, []rowFn{at(0)}, group},
		{"two-phase/global", nil, nil, nil},
	} {
		run(t, g.label,
			&BatchHashAgg{Input: &BatchGather{Inputs: partials(shards, 4, g.exprs, aggs)},
				GroupBy: g.final, Aggs: aggs, Mode: AggFinal},
			modelAggregate(shards, g.fns, mixedModelAggs[:9]))
	}
}

// TestRunBatchFragmentsEquivalence pushes fragments through scheduled
// exchange queues (tiny high-water mark to force backpressure parking)
// and checks the gathered stream is the shards in assignment order.
func TestRunBatchFragmentsEquivalence(t *testing.T) {
	sched := htap.NewScheduler(htap.Config{})
	defer sched.Stop()
	rows := mixedRows(4200)
	shards := [][]types.Row{rows[:800], rows[800:1600], rows[1600:]}
	var assign []BatchFragmentAssignment
	for _, sh := range shards {
		assign = append(assign, BatchFragmentAssignment{Op: NewBatchRowsSource(mixedCols, sh), Sched: sched})
	}
	run(t, "fragments", RunBatchFragments(htap.GroupAP, assign, 1), rows)
}

func TestBatchQueueBackpressure(t *testing.T) {
	q := NewBatchQueue(2)
	mk := func() *vector.Batch { return vector.FromRows(mixedRows(4), 4) }
	for i := 0; i < 2; i++ {
		if ok, _ := q.TryPush(mk()); !ok {
			t.Fatalf("push %d blocked below high water", i)
		}
	}
	ok, wait := q.TryPush(mk())
	if ok || wait == nil {
		t.Fatal("third push should block with a wake channel")
	}
	select {
	case <-wait:
		t.Fatal("wake fired while queue still full")
	default:
	}
	if _, err := q.Pop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatal("pop did not wake blocked producer")
	}
	if ok, _ := q.TryPush(mk()); !ok {
		t.Fatal("push after drain should succeed")
	}
	q.CloseWith(nil)
	// Closed queue: pushes drop, buffered batches stay poppable.
	if ok, _ := q.TryPush(mk()); !ok {
		t.Fatal("push to closed queue should report done")
	}
	if b, err := q.Pop(); err != nil || b.NumRows() != 4 {
		t.Fatalf("buffered batch lost: %v %v", b, err)
	}
	if _, err := q.Pop(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Pop(); !errors.Is(err, ErrEOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// oneRow is a single-row batch carrying v.
func oneRow(v int64) *vector.Batch { return vector.FromRows(intRows([]int64{v}), 1) }

func TestBatchQueueOrderAndClose(t *testing.T) {
	q := NewBatchQueue(0)
	for i := int64(0); i < 5; i++ {
		q.Push(oneRow(i))
	}
	q.CloseWith(nil)
	for i := int64(0); i < 5; i++ {
		b, err := q.Pop()
		if err != nil || b.Row(0)[0].AsInt() != i {
			t.Fatalf("pop %d = %v, %v", i, b, err)
		}
	}
	if _, err := q.Pop(); !errors.Is(err, ErrEOF) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatchQueueErrorPropagation(t *testing.T) {
	q := NewBatchQueue(0)
	want := errors.New("fragment failed")
	q.CloseWith(want)
	if _, err := q.Pop(); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	// Push after close is dropped.
	q.Push(oneRow(1))
	if q.Len() != 0 {
		t.Fatal("push after close buffered")
	}
}

// TestBatchQueueBlockingPush: Push on a full queue blocks until the
// consumer drains, then completes.
func TestBatchQueueBlockingPush(t *testing.T) {
	q := NewBatchQueue(1)
	q.Push(oneRow(0))
	done := make(chan struct{})
	go func() { q.Push(oneRow(1)); q.Push(oneRow(2)); close(done) }()
	for i := int64(0); i < 3; i++ {
		if i < 2 { // the last push needs this pop and the one before
			select {
			case <-done:
				t.Fatalf("pushes completed with %d batches still to pop from a queue of 1", 3-i)
			default:
			}
		}
		b, err := q.Pop()
		if err != nil || b.Row(0)[0].AsInt() != i {
			t.Fatalf("pop %d = %v, %v", i, b, err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking Push never completed")
	}
	q.CloseWith(nil)
}
