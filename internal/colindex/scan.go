package colindex

import (
	"fmt"
	"math"

	"repro/internal/executor"
	"repro/internal/hlc"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// clampSnapshot bounds the read snapshot by the index version: reading
// "above" the index would silently miss rows the row store already has.
func (x *Index) clampSnapshot(ts hlc.Timestamp) hlc.Timestamp {
	if ts > x.version {
		return x.version
	}
	return ts
}

// checkCols fails with ErrBadColumn on a position outside the schema:
// filters, projections and aggregates arrive in a ScanReq, so a bad one
// must be an error, not a panic.
func (x *Index) checkCols(cols []int) error {
	for _, c := range cols {
		if c < 0 || c >= len(x.cols) {
			return fmt.Errorf("%w: %d", ErrBadColumn, c)
		}
	}
	return nil
}

// compileFilter compiles a scan's filter (bound against schema
// positions) into the batch engine's Filter and checks the columns its
// kernels read. A scan refines one selection of every visible row with
// it, so each conjunct's kernel runs once per scan (the dictionary and
// run-length kernels build their match tables per call); under the read
// lock the kernels read the column storage (x.vecs) directly.
func (x *Index) compileFilter(filter sql.Expr) (*executor.Filter, error) {
	f := executor.CompileFilter(filter)
	if err := x.checkCols(f.Cols()); err != nil {
		return nil, err
	}
	return f, nil
}

// row materializes row version i.
func (x *Index) row(i int) types.Row {
	row := make(types.Row, len(x.cols))
	for c, v := range x.cols {
		row[c] = v.value(i)
	}
	return row
}

// AggSpec is one pushed-down aggregate: over a schema column (Col,
// vectorized) or a bound scalar expression (Expr, evaluated per row).
type AggSpec struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Col  int
	Expr sql.Expr
	Star bool
}

// aggAcc accumulates one aggregate. For AVG the output is the partial
// (sum, count) pair so the CN's final aggregation can merge across
// shards — matching executor.AggPartial layout.
type aggAcc struct {
	spec  AggSpec
	count int64
	sumI  int64
	sumF  float64
	isF   bool
	min   types.Value
	max   types.Value
	any   bool
	run   int // RLE cursor for run-length input columns
}

func (a *aggAcc) addVec(v *colVec, i int) {
	if a.spec.Star {
		a.count++
		return
	}
	d := v.data
	if e := d.RLE; e != nil {
		// Run-length input: resolve the run once with the accumulator's
		// cursor, then fold the run value directly.
		a.run = e.FindRun(i, a.run)
		if e.RunNull(a.run) {
			return
		}
		a.any = true
		switch a.spec.Func {
		case "COUNT":
			a.count++
		case "SUM", "AVG":
			a.count++
			switch e.Kind {
			case types.KindInt, types.KindBool:
				a.sumI += e.Ints[a.run]
			case types.KindFloat:
				a.isF = true
				a.sumF += e.Floats[a.run]
			}
		case "MIN", "MAX":
			a.cmpUpdate(e.RunValue(a.run))
		}
		return
	}
	if d.IsNull(i) {
		return
	}
	a.any = true
	switch a.spec.Func {
	case "COUNT":
		a.count++
	case "SUM", "AVG":
		a.count++
		switch d.Kind {
		case types.KindInt, types.KindBool:
			if d.Pack != nil {
				a.sumI += d.Pack.Get(i)
			} else {
				a.sumI += d.Ints[i]
			}
		case types.KindFloat:
			a.isF = true
			a.sumF += d.Floats[i]
		}
	case "MIN", "MAX":
		a.cmpUpdate(d.Value(i))
	}
}

// cmpUpdate folds a non-null value into the MIN/MAX state.
func (a *aggAcc) cmpUpdate(val types.Value) {
	if a.spec.Func == "MIN" {
		if a.min.IsNull() || val.Compare(a.min) < 0 {
			a.min = val
		}
		return
	}
	if a.max.IsNull() || val.Compare(a.max) > 0 {
		a.max = val
	}
}

// addValue folds an expression-computed value.
func (a *aggAcc) addValue(val types.Value) {
	if a.spec.Star {
		a.count++
		return
	}
	if val.IsNull() {
		return
	}
	a.any = true
	switch a.spec.Func {
	case "COUNT":
		a.count++
	case "SUM", "AVG":
		a.count++
		switch val.K {
		case types.KindInt, types.KindBool:
			a.sumI += val.I
		default:
			a.isF = true
			a.sumF += val.AsFloat()
		}
	case "MIN":
		if a.min.IsNull() || val.Compare(a.min) < 0 {
			a.min = val
		}
	case "MAX":
		if a.max.IsNull() || val.Compare(a.max) > 0 {
			a.max = val
		}
	}
}

// partial renders the accumulator in executor partial-state layout.
func (a *aggAcc) partial() []types.Value {
	sum := types.Value{}
	switch {
	case a.isF:
		sum = types.Float(a.sumF + float64(a.sumI))
	case a.count > 0 && (a.spec.Func == "SUM" || a.spec.Func == "AVG"):
		sum = types.Int(a.sumI)
	}
	switch a.spec.Func {
	case "COUNT":
		return []types.Value{types.Int(a.count)}
	case "SUM":
		return []types.Value{sum}
	case "AVG":
		return []types.Value{sum, types.Int(a.count)}
	case "MIN":
		return []types.Value{a.min}
	case "MAX":
		return []types.Value{a.max}
	}
	return []types.Value{types.Null()}
}

// AggScan runs filter + grouping + partial aggregation entirely inside
// the column index (the §VI-E pushdown that powers Q1/Q6-style
// speedups). Output layout: group values, then partial aggregate states
// (AVG contributes sum and count columns).
func (x *Index) AggScan(snapshot hlc.Timestamp, filter sql.Expr,
	groupBy []int, aggs []AggSpec) ([]types.Row, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ts := x.clampSnapshot(snapshot)
	f, err := x.compileFilter(filter)
	if err != nil {
		return nil, err
	}
	if err := x.checkCols(groupBy); err != nil {
		return nil, err
	}
	touched := x.touchedCols(f, groupBy)
	for _, spec := range aggs {
		switch {
		case spec.Expr != nil:
			touched = x.touchedCols(f, nil)
		case !spec.Star:
			if err := x.checkCols([]int{spec.Col}); err != nil {
				return nil, err
			}
			touched[spec.Col] = true
		}
	}
	x.noteScan(touched)
	// The selection lives only as long as the scan, so it comes from the
	// pool, sized for every row at once.
	sel := vector.GetSel()
	if n := x.vis.len(); cap(sel) < n {
		sel = make([]int, 0, n)
	}
	sel, err = f.Refine(x.vecs, x.vis.appendVisible(sel, ts, 0))
	defer vector.PutSel(sel)
	if err != nil {
		return nil, err
	}
	type group struct {
		key  types.Row
		accs []*aggAcc
	}
	groups := make(map[string]*group)
	// keyBuf is reused per row; map lookups with string(keyBuf) do not
	// allocate on hit, so steady-state grouping is allocation-free —
	// this is where the columnar path earns its Fig. 10 speedups.
	keyBuf := make([]byte, 0, 64)
	for _, i := range sel {
		keyBuf = keyBuf[:0]
		for _, c := range groupBy {
			keyBuf = appendGroupKey(keyBuf, x.cols[c], i)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			keyVals := make(types.Row, len(groupBy))
			for k, c := range groupBy {
				keyVals[k] = x.cols[c].value(i)
			}
			g = &group{key: keyVals}
			for _, spec := range aggs {
				g.accs = append(g.accs, &aggAcc{spec: spec})
			}
			groups[string(keyBuf)] = g
		}
		var exprRow types.Row
		for k, spec := range aggs {
			if spec.Star {
				g.accs[k].count++
				continue
			}
			if spec.Expr != nil {
				if exprRow == nil {
					exprRow = x.row(i)
				}
				val, err := sql.Eval(spec.Expr, exprRow)
				if err != nil {
					return nil, err
				}
				g.accs[k].addValue(val)
				continue
			}
			g.accs[k].addVec(x.cols[spec.Col], i)
		}
	}
	if len(groupBy) == 0 && len(groups) == 0 {
		g := &group{}
		for _, spec := range aggs {
			g.accs = append(g.accs, &aggAcc{spec: spec})
		}
		groups[""] = g
	}
	out := make([]types.Row, 0, len(groups))
	for _, g := range groups {
		row := append(types.Row{}, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.partial()...)
		}
		out = append(out, row)
	}
	return out, nil
}

// appendGroupKey appends an injective encoding of row i's column value
// to dst without boxing it into a types.Value. Dictionary columns key
// on the code (tag 4) — codes are assigned once and never reused, so
// within one index the code is injective and the dictionary strings
// stay untouched; keys are only compared within a single AggScan call
// (the output rows carry the decoded group values).
func appendGroupKey(dst []byte, v *colVec, i int) []byte {
	d := v.data
	if d.Dict != nil {
		if d.Dict.IsNull(i) {
			return append(dst, 0)
		}
		c := d.Dict.Code(i)
		return append(dst, 4, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	if d.IsNull(i) {
		return append(dst, 0)
	}
	switch d.Kind {
	case types.KindInt, types.KindBool:
		var n int64
		switch {
		case d.Pack != nil:
			n = d.Pack.Get(i)
		case d.RLE != nil:
			n = d.RLE.Value(i).I
		default:
			n = d.Ints[i]
		}
		u := uint64(n)
		return append(dst, 1,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case types.KindFloat:
		var f float64
		if d.RLE != nil {
			f = d.RLE.Value(i).F
		} else {
			f = d.Floats[i]
		}
		u := math.Float64bits(f)
		return append(dst, 2,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	default:
		var s string
		if d.RLE != nil {
			s = d.RLE.Value(i).S
		} else {
			s = d.Strs[i]
		}
		u := uint32(len(s))
		dst = append(dst, 3, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
		return append(dst, s...)
	}
}
