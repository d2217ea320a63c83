package executor

import (
	"errors"

	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// BatchHashJoin is an equi-join. The RIGHT input is the build side
// (hashed on RightKeys); the LEFT input streams and probes, which
// preserves left order and makes LEFT OUTER natural (Outer emits
// NULL-extended rows for unmatched left rows). Matches emit in build
// insertion order, NULL keys never match, and Residual filters the
// joined layout (left columns then right columns). The optimizer places
// the smaller input on the right. Probing is amortized: keys encode
// into a reused buffer straight from column vectors and output rows
// append into pooled vectors.
type BatchHashJoin struct {
	Left, Right BatchOperator
	// LeftKeys/RightKeys are bound against the respective child layouts.
	LeftKeys, RightKeys []sql.Expr
	Residual            sql.Expr
	Outer               bool

	cols  []string
	built bool
	table map[string][]types.Row

	keyVals  []types.Value
	keyBuf   []byte
	scratchL types.Row // left child layout
	scratchJ types.Row // joined layout (left ++ right)
	lrefs    []int     // LeftKeys column indexes, or nil if any key is complex

	// Per-output-row emission plan, rebuilt per probe batch: leftPos[k]
	// is the physical left-row position, rightRows[k] the matched build
	// row (nil = outer-join null extension). Left columns then emit via
	// typed gathers instead of boxing every value through a scratch row.
	leftPos   []int
	rightRows []types.Row
}

// Columns implements BatchOperator.
func (j *BatchHashJoin) Columns() []string {
	if j.cols == nil {
		j.cols = append(append([]string{}, j.Left.Columns()...), j.Right.Columns()...)
	}
	return j.cols
}

// Open implements BatchOperator.
func (j *BatchHashJoin) Open() error {
	j.built, j.table = false, nil
	lw, rw := len(j.Left.Columns()), len(j.Right.Columns())
	j.scratchL = make(types.Row, lw)
	j.scratchJ = make(types.Row, lw+rw)
	j.keyVals = make([]types.Value, len(j.LeftKeys))
	j.lrefs = columnRefIndexes(j.LeftKeys)
	if err := j.Left.Open(); err != nil {
		return err
	}
	return j.Right.Open()
}

// columnRefIndexes returns the bound column index per expression, or
// nil if any expression is not a plain column reference.
func columnRefIndexes(exprs []sql.Expr) []int {
	out := make([]int, len(exprs))
	for i, e := range exprs {
		c, ok := e.(*sql.ColumnRef)
		if !ok || c.Index < 0 {
			return nil
		}
		out[i] = c.Index
	}
	return out
}

// build hashes the right input, materializing rows only for non-NULL
// keys (NULL join keys never match, so their rows are dead weight).
func (j *BatchHashJoin) build() error {
	j.table = make(map[string][]types.Row)
	rrefs := columnRefIndexes(j.RightKeys)
	scratch := make(types.Row, len(j.Right.Columns()))
	for {
		b, err := j.Right.NextBatch()
		if errors.Is(err, ErrEOF) {
			break
		}
		if err != nil {
			return err
		}
		n := b.NumRows()
		for i := 0; i < n; i++ {
			ok := true
			if rrefs != nil {
				p := b.RowIdx(i)
				for k, c := range rrefs {
					v := b.Vecs[c].Value(p)
					if v.IsNull() {
						ok = false
						break
					}
					j.keyVals[k] = v
				}
			} else {
				b.RowInto(scratch, i)
				for k, e := range j.RightKeys {
					v, err := sql.Eval(e, scratch)
					if err != nil {
						b.Release()
						return err
					}
					if v.IsNull() {
						ok = false
						break
					}
					j.keyVals[k] = v
				}
			}
			if !ok {
				continue
			}
			j.keyBuf = types.EncodeKey(j.keyBuf[:0], j.keyVals...)
			key := string(j.keyBuf)
			j.table[key] = append(j.table[key], b.Row(i))
		}
		b.Release()
	}
	j.built = true
	return nil
}

// NextBatch implements BatchOperator. Each input batch probes into one
// output batch (sized by the match cardinality), in probe order.
func (j *BatchHashJoin) NextBatch() (*vector.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	lw := len(j.Left.Columns())
	rw := len(j.Right.Columns())
	// scratchL is only consulted for complex key expressions and
	// residual evaluation; the common equi-join path probes straight
	// from the vectors and never boxes the left row.
	needScratch := j.lrefs == nil || j.Residual != nil
	for {
		b, err := j.Left.NextBatch()
		if err != nil {
			return nil, err // includes ErrEOF
		}
		j.leftPos = j.leftPos[:0]
		j.rightRows = j.rightRows[:0]
		n := b.NumRows()
		for i := 0; i < n; i++ {
			if needScratch {
				b.RowInto(j.scratchL, i)
			}
			matches, ok, err := j.probe(b, i)
			if err != nil {
				b.Release()
				return nil, err
			}
			p := b.RowIdx(i)
			if !ok || len(matches) == 0 {
				if j.Outer {
					j.leftPos = append(j.leftPos, p)
					j.rightRows = append(j.rightRows, nil)
				}
				continue
			}
			if j.Outer && j.Residual != nil {
				// Residual-filtered LEFT OUTER: null-extend when no match
				// survives the residual.
				emitted := false
				for _, m := range matches {
					pass, err := j.residualPass(m)
					if err != nil {
						b.Release()
						return nil, err
					}
					if pass {
						j.leftPos = append(j.leftPos, p)
						j.rightRows = append(j.rightRows, m)
						emitted = true
					}
				}
				if !emitted {
					j.leftPos = append(j.leftPos, p)
					j.rightRows = append(j.rightRows, nil)
				}
				continue
			}
			for _, m := range matches {
				if j.Residual != nil {
					pass, err := j.residualPass(m)
					if err != nil {
						b.Release()
						return nil, err
					}
					if !pass {
						continue
					}
				}
				j.leftPos = append(j.leftPos, p)
				j.rightRows = append(j.rightRows, m)
			}
		}
		if len(j.leftPos) == 0 {
			b.Release()
			continue
		}
		out := joinedBatch(b, lw, rw, j.leftPos, j.rightRows)
		b.Release()
		return out, nil
	}
}

// joinedBatch emits one join output batch: output row k is left row
// leftPos[k] (a physical position in left, gathered column by column)
// followed by rightRows[k], or by NULLs where rightRows[k] is nil.
func joinedBatch(left *vector.Batch, lw, rw int, leftPos []int, rightRows []types.Row) *vector.Batch {
	out := vector.NewBatch(lw + rw)
	for c := 0; c < lw; c++ {
		out.Vecs[c].AppendGather(left.Vecs[c], leftPos)
	}
	for c := 0; c < rw; c++ {
		out.Vecs[lw+c].AppendRowsColumn(rightRows, c)
	}
	return out
}

// closeBoth closes a join's inputs, reporting the left error first.
func closeBoth(left, right BatchOperator) error {
	errL := left.Close()
	errR := right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// probe computes the probe key for logical row i (already materialized
// into scratchL) and returns its build-side matches.
func (j *BatchHashJoin) probe(b *vector.Batch, i int) ([]types.Row, bool, error) {
	if j.lrefs != nil {
		p := b.RowIdx(i)
		for k, c := range j.lrefs {
			v := b.Vecs[c].Value(p)
			if v.IsNull() {
				return nil, false, nil
			}
			j.keyVals[k] = v
		}
	} else {
		for k, e := range j.LeftKeys {
			v, err := sql.Eval(e, j.scratchL)
			if err != nil {
				return nil, false, err
			}
			if v.IsNull() {
				return nil, false, nil
			}
			j.keyVals[k] = v
		}
	}
	j.keyBuf = types.EncodeKey(j.keyBuf[:0], j.keyVals...)
	return j.table[string(j.keyBuf)], true, nil
}

// residualPass evaluates the residual on scratchL ++ match.
func (j *BatchHashJoin) residualPass(match types.Row) (bool, error) {
	copy(j.scratchJ, j.scratchL)
	copy(j.scratchJ[len(j.scratchL):], match)
	v, err := sql.Eval(j.Residual, j.scratchJ)
	if err != nil {
		return false, err
	}
	return v.IsTruthy(), nil
}

// Close implements BatchOperator.
func (j *BatchHashJoin) Close() error {
	j.table = nil
	return closeBoth(j.Left, j.Right)
}

// BatchNestedLoopJoin handles non-equi joins: the right side is
// materialized once and re-scanned per left row with the ON condition
// (nil = cross join) evaluated on a scratch row in the combined layout.
// Pairs emit in left order then right order; Outer null-extends a left
// row that matched nothing. The optimizer only picks it when no
// equi-keys exist.
type BatchNestedLoopJoin struct {
	Left, Right BatchOperator
	On          sql.Expr
	Outer       bool

	cols    []string
	built   bool
	right   []types.Row
	scratch types.Row // joined layout (left ++ right)

	cur *vector.Batch // left batch being joined
	li  int           // next logical row of cur

	// Emission plan of the output batch under construction, as in
	// BatchHashJoin: rightRows[k] nil = outer-join null extension.
	leftPos   []int
	rightRows []types.Row
}

// Columns implements BatchOperator.
func (j *BatchNestedLoopJoin) Columns() []string {
	if j.cols == nil {
		j.cols = append(append([]string{}, j.Left.Columns()...), j.Right.Columns()...)
	}
	return j.cols
}

// Open implements BatchOperator.
func (j *BatchNestedLoopJoin) Open() error {
	j.built, j.right = false, nil
	j.scratch = make(types.Row, len(j.Columns()))
	if err := j.Left.Open(); err != nil {
		return err
	}
	return j.Right.Open()
}

// NextBatch implements BatchOperator. An output batch closes at the
// first left-row boundary past DefaultSize pairs, so its size is bounded
// by DefaultSize plus the right side's cardinality however large the
// cross product.
func (j *BatchNestedLoopJoin) NextBatch() (*vector.Batch, error) {
	if !j.built {
		var err error
		if j.right, err = drainRows(j.Right); err != nil {
			return nil, err
		}
		j.built = true
	}
	lw := len(j.Left.Columns())
	rw := len(j.Right.Columns())
	for {
		if j.cur == nil {
			b, err := j.Left.NextBatch()
			if err != nil {
				return nil, err // includes ErrEOF
			}
			j.cur, j.li = b, 0
		}
		b := j.cur
		j.leftPos = j.leftPos[:0]
		j.rightRows = j.rightRows[:0]
		for n := b.NumRows(); j.li < n && len(j.leftPos) < vector.DefaultSize; j.li++ {
			b.RowInto(j.scratch[:lw], j.li)
			p := b.RowIdx(j.li)
			matched := false
			for _, r := range j.right {
				if j.On != nil {
					copy(j.scratch[lw:], r)
					v, err := sql.Eval(j.On, j.scratch)
					if err != nil {
						return nil, err
					}
					if !v.IsTruthy() {
						continue
					}
				}
				matched = true
				j.leftPos = append(j.leftPos, p)
				j.rightRows = append(j.rightRows, r)
			}
			if j.Outer && !matched {
				j.leftPos = append(j.leftPos, p)
				j.rightRows = append(j.rightRows, nil)
			}
		}
		var out *vector.Batch
		if len(j.leftPos) > 0 {
			out = joinedBatch(b, lw, rw, j.leftPos, j.rightRows)
		}
		if j.li >= b.NumRows() {
			b.Release()
			j.cur = nil
		}
		if out != nil {
			return out, nil
		}
	}
}

// Close implements BatchOperator.
func (j *BatchNestedLoopJoin) Close() error {
	if j.cur != nil {
		j.cur.Release()
		j.cur = nil
	}
	j.right = nil
	return closeBoth(j.Left, j.Right)
}
