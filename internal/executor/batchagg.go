package executor

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// BatchHashAgg groups its input on GroupBy expressions and computes
// Aggs in Complete, Partial or Final mode (AVG's partial state is two
// columns: sum, count). Output layout: group columns first (in GroupBy
// order), then aggregate columns (state columns in Partial mode).
// Groups are emitted in sorted encoded-key order for determinism. Group
// keys box only the key columns and encode into a reused buffer (no
// per-row sql.Eval, no allocation on group hits), aggregate arguments
// read straight from vectors, and global aggregates over typed vectors
// run fused update kernels.
//
// Float SUM/AVG accumulation folds strictly in row order — including
// inside the fused kernels — so a result is a left fold over the input
// order (float addition is not associative; the tests' model demands
// the same fold order, not just the same set of addends).
type BatchHashAgg struct {
	Input   BatchOperator
	GroupBy []sql.Expr
	Aggs    []AggSpec
	Mode    AggMode
	// Names overrides output column names (len = group cols + agg cols).
	Names []string

	groups map[string]*aggGroup
	order  []string
	out    *BatchesSource
	built  bool

	grefs   []int // GroupBy column indexes, or nil
	arefs   []int // per-agg Arg column index, -1 = complex, -2 = star
	keyVals []types.Value
	keyBuf  []byte
	scratch types.Row
}

// Columns implements BatchOperator.
func (h *BatchHashAgg) Columns() []string {
	if h.Names != nil {
		return h.Names
	}
	var out []string
	for i := range h.GroupBy {
		out = append(out, fmt.Sprintf("group%d", i))
	}
	for i, a := range h.Aggs {
		if h.Mode == AggPartial && a.Func == "AVG" {
			out = append(out, fmt.Sprintf("agg%d_sum", i), fmt.Sprintf("agg%d_cnt", i))
		} else {
			out = append(out, fmt.Sprintf("agg%d", i))
		}
	}
	return out
}

// Open implements BatchOperator.
func (h *BatchHashAgg) Open() error {
	h.groups, h.order, h.out, h.built = nil, nil, nil, false
	h.grefs = columnRefIndexes(h.GroupBy)
	h.arefs = make([]int, len(h.Aggs))
	for i, a := range h.Aggs {
		h.arefs[i] = -1
		if a.Star {
			h.arefs[i] = -2
		} else if c, ok := a.Arg.(*sql.ColumnRef); ok && c.Index >= 0 {
			h.arefs[i] = c.Index
		}
	}
	h.keyVals = make([]types.Value, len(h.GroupBy))
	h.scratch = make(types.Row, len(h.Input.Columns()))
	return h.Input.Open()
}

// NextBatch implements BatchOperator.
func (h *BatchHashAgg) NextBatch() (*vector.Batch, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	return h.out.NextBatch()
}

func (h *BatchHashAgg) build() error {
	h.groups = make(map[string]*aggGroup)
	fused := h.fusable()
	for {
		b, err := h.Input.NextBatch()
		if errors.Is(err, ErrEOF) {
			break
		}
		if err != nil {
			return err
		}
		if fused {
			err = h.updateGlobalFused(b)
		} else {
			err = h.updateBatch(b)
		}
		b.Release()
		if err != nil {
			return err
		}
	}
	// Global aggregation over zero rows still yields one row (SQL).
	if len(h.GroupBy) == 0 && len(h.groups) == 0 {
		h.groups[""] = h.newGroup(nil)
	}
	h.order = make([]string, 0, len(h.groups))
	for k := range h.groups {
		h.order = append(h.order, k)
	}
	sort.Strings(h.order)
	ncols := len(h.Columns())
	var rows []types.Row
	for _, k := range h.order {
		g := h.groups[k]
		out := append(types.Row{}, g.keyVals...)
		for _, st := range g.states {
			out = append(out, st.final(h.Mode)...)
		}
		rows = append(rows, out)
	}
	h.out = &BatchesSource{Batches: BatchesFromRows(rows, ncols)}
	h.built = true
	return nil
}

// fusable reports whether the global fused kernels apply: no grouping,
// direct column (or star) arguments, no DISTINCT, not merging partials.
func (h *BatchHashAgg) fusable() bool {
	if len(h.GroupBy) != 0 || h.Mode == AggFinal {
		return false
	}
	for i, a := range h.Aggs {
		if a.Distinct || h.arefs[i] == -1 {
			return false
		}
	}
	return true
}

func (h *BatchHashAgg) newGroup(keyVals types.Row) *aggGroup {
	g := &aggGroup{keyVals: keyVals}
	for _, spec := range h.Aggs {
		g.states = append(g.states, newAggState(spec))
	}
	return g
}

// globalGroup returns the singleton group for non-grouped aggregation.
func (h *BatchHashAgg) globalGroup() *aggGroup {
	g, ok := h.groups[""]
	if !ok {
		g = h.newGroup(nil)
		h.groups[""] = g
	}
	return g
}

// updateGlobalFused runs the per-aggregate update kernels over one
// batch for global (non-grouped) aggregation.
func (h *BatchHashAgg) updateGlobalFused(b *vector.Batch) error {
	g := h.globalGroup()
	for i, spec := range h.Aggs {
		st := g.states[i]
		if h.arefs[i] == -2 { // COUNT(*)
			st.count += int64(b.NumRows())
			continue
		}
		vec := b.Vecs[h.arefs[i]]
		switch spec.Func {
		case "COUNT":
			st.count += countNonNull(vec, b.Sel)
		case "SUM", "AVG":
			sumKernel(st, vec, b.Sel)
		case "MIN", "MAX":
			minmaxKernel(st, vec, b.Sel, spec.Func == "MIN")
		}
	}
	return nil
}

func countNonNull(v *vector.Vector, sel []int) int64 {
	var n int64
	if sel != nil {
		for _, i := range sel {
			if !v.IsNull(i) {
				n++
			}
		}
		return n
	}
	for i, l := 0, v.Len(); i < l; i++ {
		if !v.IsNull(i) {
			n++
		}
	}
	return n
}

// forSel iterates the selected physical positions.
func forSel(v *vector.Vector, sel []int, fn func(i int)) {
	if sel != nil {
		for _, i := range sel {
			fn(i)
		}
		return
	}
	for i, l := 0, v.Len(); i < l; i++ {
		fn(i)
	}
}

// sumKernel folds a column into st.sum/st.count with Value.Add's
// promotion semantics: the integer fast path only runs while the
// accumulator is still integral (or empty) over an int column; any
// float anywhere switches to the in-order float fold so the result is
// bit-identical to a left fold with Value.Add.
func sumKernel(st *aggState, v *vector.Vector, sel []int) {
	if v.Encoded() {
		if !sumEncoded(st, v, sel) {
			forSel(v, sel, func(i int) { st.add(v.Value(i)) })
		}
		return
	}
	if v.Kind == types.KindInt && (st.sum.IsNull() || st.sum.K == types.KindInt) {
		var acc int64
		var nn int64
		nulls := v.Nulls
		if sel != nil {
			for _, i := range sel {
				if nulls == nil || !nulls[i] {
					acc += v.Ints[i]
					nn++
				}
			}
		} else {
			for i, l := 0, v.Len(); i < l; i++ {
				if nulls == nil || !nulls[i] {
					acc += v.Ints[i]
					nn++
				}
			}
		}
		if nn > 0 {
			if st.sum.IsNull() {
				st.sum = types.Int(acc)
			} else {
				st.sum = types.Int(st.sum.I + acc)
			}
			st.count += nn
		}
		return
	}
	if v.Kind == types.KindFloat || v.Kind == types.KindInt {
		started := !st.sum.IsNull()
		var acc float64
		if started {
			acc = st.sum.AsFloat()
		}
		intSum := st.sum.K == types.KindInt // still integral: first float value promotes
		var accI int64
		if intSum {
			accI = st.sum.I
		}
		nulls := v.Nulls
		forSel(v, sel, func(i int) {
			if nulls != nil && nulls[i] {
				return
			}
			var f float64
			if v.Kind == types.KindFloat {
				f = v.Floats[i]
			} else {
				f = float64(v.Ints[i])
			}
			switch {
			case !started:
				// First value: Null.Add(v) keeps v's kind.
				if v.Kind == types.KindInt {
					intSum, accI = true, v.Ints[i]
				} else {
					acc = f
				}
				started = true
			case intSum && v.Kind == types.KindInt:
				accI += v.Ints[i]
			case intSum:
				acc, intSum = float64(accI)+f, false
			default:
				acc += f
			}
			st.count++
		})
		if started {
			if intSum {
				st.sum = types.Int(accI)
			} else {
				st.sum = types.Float(acc)
			}
		}
		return
	}
	// Boxed/string columns: defer to the boxed accumulator.
	forSel(v, sel, func(i int) { st.add(v.Value(i)) })
}

func minmaxKernel(st *aggState, v *vector.Vector, sel []int, min bool) {
	forSel(v, sel, func(i int) {
		val := v.Value(i)
		if val.IsNull() {
			return
		}
		if min {
			if st.min.IsNull() || val.Compare(st.min) < 0 {
				st.min = val
			}
		} else {
			if st.max.IsNull() || val.Compare(st.max) > 0 {
				st.max = val
			}
		}
	})
}

// updateBatch is the grouped (or partial-merge) path: group keys read
// straight from vectors into a reused encode buffer; complex
// expressions fall back to a scratch row.
func (h *BatchHashAgg) updateBatch(b *vector.Batch) error {
	n := b.NumRows()
	// Size the scratch row from the live batch: sources fed by exchange
	// gathers may not know their width until data arrives.
	if len(h.scratch) < b.NumCols() {
		h.scratch = make(types.Row, b.NumCols())
	}
	needRow := h.grefs == nil
	if !needRow && h.Mode != AggFinal {
		for i := range h.Aggs {
			if h.arefs[i] == -1 {
				needRow = true
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		p := b.RowIdx(i)
		if needRow {
			b.RowInto(h.scratch, i)
		}
		if h.grefs != nil {
			for k, c := range h.grefs {
				h.keyVals[k] = b.Vecs[c].Value(p)
			}
		} else {
			for k, e := range h.GroupBy {
				v, err := sql.Eval(e, h.scratch)
				if err != nil {
					return err
				}
				h.keyVals[k] = v
			}
		}
		h.keyBuf = types.EncodeKey(h.keyBuf[:0], h.keyVals...)
		g, ok := h.groups[string(h.keyBuf)]
		if !ok {
			g = h.newGroup(append(types.Row{}, h.keyVals...))
			h.groups[string(h.keyBuf)] = g
		}
		if h.Mode == AggFinal {
			// Input rows are [groupCols..., stateCols...]: merge states.
			col := len(h.GroupBy)
			for k, spec := range h.Aggs {
				w := spec.stateWidth()
				if col+w > b.NumCols() {
					return fmt.Errorf("executor: partial state row too narrow: %d cols", b.NumCols())
				}
				for s := 0; s < w; s++ {
					h.scratch[s] = b.Vecs[col+s].Value(p)
				}
				g.states[k].merge(h.scratch[:w])
				col += w
			}
			continue
		}
		for k, spec := range h.Aggs {
			var v types.Value
			switch h.arefs[k] {
			case -2:
				v = types.Int(1)
			case -1:
				var err error
				v, err = sql.Eval(spec.Arg, h.scratch)
				if err != nil {
					return err
				}
			default:
				v = b.Vecs[h.arefs[k]].Value(p)
			}
			g.states[k].add(v)
		}
	}
	return nil
}

// Close implements BatchOperator.
func (h *BatchHashAgg) Close() error {
	h.groups, h.out = nil, nil
	return h.Input.Close()
}
