package executor

// The reference the operator tests compare against: every relational
// operation written as a plain loop over []types.Row, with predicates
// and scalar functions as Go closures. It shares no code with the
// operators (no sql.Eval, no vectors, no hash tables, no aggState), so
// agreement is evidence about the engine rather than about code both
// sides run. Results must match exactly — same rows, same order, same
// value kinds, floats bit for bit.

import (
	"math"
	"testing"

	"repro/internal/types"
)

type (
	rowPred func(types.Row) bool
	rowFn   func(types.Row) types.Value
)

// at reads column i.
func at(i int) rowFn { return func(r types.Row) types.Value { return r[i] } }

func modelFilter(rows []types.Row, keep rowPred) []types.Row {
	var out []types.Row
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func modelProject(rows []types.Row, fns ...rowFn) []types.Row {
	var out []types.Row
	for _, r := range rows {
		o := make(types.Row, len(fns))
		for i, f := range fns {
			o[i] = f(r)
		}
		out = append(out, o)
	}
	return out
}

func modelLimit(rows []types.Row, n int) []types.Row {
	if n >= 0 && n < len(rows) {
		return rows[:n]
	}
	return rows
}

type modelKey struct {
	fn   rowFn
	desc bool
}

// modelSort is a stable insertion sort: ties keep input order.
func modelSort(rows []types.Row, keys ...modelKey) []types.Row {
	before := func(a, b types.Row) bool {
		for _, k := range keys {
			c := k.fn(a).Compare(k.fn(b))
			if c == 0 {
				continue
			}
			return (c < 0) != k.desc
		}
		return false
	}
	out := append([]types.Row(nil), rows...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && before(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// modelJoin pairs every left row with every right row, in left order
// then right order, keeping the pairs on accepts (called with the joined
// row). outer null-extends a left row no pair kept; rw is the right
// width.
func modelJoin(left, right []types.Row, rw int, outer bool, on rowPred) []types.Row {
	var out []types.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			joined := append(append(types.Row{}, l...), r...)
			if on(joined) {
				matched = true
				out = append(out, joined)
			}
		}
		if outer && !matched {
			out = append(out, append(append(types.Row{}, l...), make(types.Row, rw)...))
		}
	}
	return out
}

// equi is the hash-join condition over the joined layout: key columns
// equal and non-NULL (NULL keys never match), then the residual.
func equi(lkey, rkey rowFn, residual rowPred) rowPred {
	return func(j types.Row) bool {
		a, b := lkey(j), rkey(j)
		if a.IsNull() || b.IsNull() || a.Compare(b) != 0 {
			return false
		}
		return residual == nil || residual(j)
	}
}

// modelAgg is one aggregate: fn over arg (nil arg = COUNT(*)).
type modelAgg struct {
	fn       string
	arg      rowFn
	distinct bool
}

// modelAcc is the running state of one aggregate for one group.
type modelAcc struct {
	count    int64 // rows (COUNT(*)) or non-NULL inputs
	sum      types.Value
	min, max types.Value
	seen     []types.Value
}

// plus is SQL numeric addition: NULL is the identity, int+int stays
// int, anything else adds as float64.
func plus(a, b types.Value) types.Value {
	switch {
	case a.IsNull():
		return b
	case a.K == types.KindInt && b.K == types.KindInt:
		return types.Int(a.I + b.I)
	}
	return types.Float(a.AsFloat() + b.AsFloat())
}

func (a *modelAcc) add(spec modelAgg, r types.Row) {
	if spec.arg == nil {
		a.count++
		return
	}
	v := spec.arg(r)
	if spec.distinct {
		for _, s := range a.seen {
			if s.IsNull() == v.IsNull() && (v.IsNull() || s.Compare(v) == 0) {
				return
			}
		}
		a.seen = append(a.seen, v)
	}
	if v.IsNull() {
		return
	}
	a.count++
	a.sum = plus(a.sum, v)
	if a.min.IsNull() || v.Compare(a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || v.Compare(a.max) > 0 {
		a.max = v
	}
}

// merge folds another fragment's state for the same group into a.
func (a *modelAcc) merge(b *modelAcc) {
	a.count += b.count
	if !b.sum.IsNull() {
		a.sum = plus(a.sum, b.sum)
	}
	if !b.min.IsNull() && (a.min.IsNull() || b.min.Compare(a.min) < 0) {
		a.min = b.min
	}
	if !b.max.IsNull() && (a.max.IsNull() || b.max.Compare(a.max) > 0) {
		a.max = b.max
	}
}

func (a *modelAcc) result(fn string) types.Value {
	switch fn {
	case "COUNT":
		return types.Int(a.count)
	case "SUM":
		return a.sum
	case "AVG":
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum.AsFloat() / float64(a.count))
	case "MIN":
		return a.min
	}
	return a.max
}

type modelGroup struct {
	key  types.Row
	accs []*modelAcc
}

func sameKey(a, b types.Row) bool {
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || (!a[i].IsNull() && a[i].Compare(b[i]) != 0) {
			return false
		}
	}
	return true
}

// modelGroups accumulates rows into groups, found by linear search, in
// first-seen order; each aggregate folds its inputs in row order.
func modelGroups(rows []types.Row, groupBy []rowFn, aggs []modelAgg) []*modelGroup {
	var groups []*modelGroup
	for _, r := range rows {
		key := make(types.Row, len(groupBy))
		for i, g := range groupBy {
			key[i] = g(r)
		}
		var grp *modelGroup
		for _, g := range groups {
			if sameKey(g.key, key) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &modelGroup{key: key}
			for range aggs {
				grp.accs = append(grp.accs, &modelAcc{})
			}
			groups = append(groups, grp)
		}
		for i, spec := range aggs {
			grp.accs[i].add(spec, r)
		}
	}
	return groups
}

// modelAggregate is GROUP BY over shards: each shard aggregates on its
// own and the per-shard states merge in shard order (one shard = the
// single-phase aggregate; several = partial → final, whose float sums
// fold shard by shard). Groups come out ordered by key, NULL first; a
// global aggregate over no rows still yields its one row.
func modelAggregate(shards [][]types.Row, groupBy []rowFn, aggs []modelAgg) []types.Row {
	var merged []*modelGroup
	for _, sh := range shards {
		for _, g := range modelGroups(sh, groupBy, aggs) {
			var into *modelGroup
			for _, m := range merged {
				if sameKey(m.key, g.key) {
					into = m
					break
				}
			}
			if into == nil {
				merged = append(merged, g)
				continue
			}
			for i := range aggs {
				into.accs[i].merge(g.accs[i])
			}
		}
	}
	if len(groupBy) == 0 && len(merged) == 0 {
		g := &modelGroup{}
		for range aggs {
			g.accs = append(g.accs, &modelAcc{})
		}
		merged = append(merged, g)
	}
	var rows []types.Row
	for _, g := range merged {
		out := append(types.Row{}, g.key...)
		for i, spec := range aggs {
			out = append(out, g.accs[i].result(spec.fn))
		}
		rows = append(rows, out)
	}
	keys := make([]modelKey, len(groupBy))
	for i := range keys {
		keys[i] = modelKey{fn: at(i)}
	}
	return modelSort(rows, keys...)
}

// assertSameRows requires positionally identical output: same kinds,
// same values, floats bit for bit.
func assertSameRows(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			a, b := got[i][j], want[i][j]
			same := a.K == b.K && (a.IsNull() || a.Compare(b) == 0)
			if same && a.K == types.KindFloat {
				same = math.Float64bits(a.F) == math.Float64bits(b.F)
			}
			if !same {
				t.Fatalf("%s row %d col %d: %v (kind %d), want %v (kind %d)", label, i, j, a, a.K, b, b.K)
			}
		}
	}
}

// run drains op and compares with the model's answer.
func run(t *testing.T, label string, op BatchOperator, want []types.Row) []types.Row {
	t.Helper()
	got, err := CollectBatch(op)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameRows(t, label, got, want)
	return got
}
