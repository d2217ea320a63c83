package vector

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Batch is a column-major slice of rows: one Vector per column plus an
// optional selection vector. Sel, when non-nil, lists the physical row
// positions that are logically present, in order — filters refine Sel
// instead of copying column data. A nil Sel means every physical row
// [0, Vecs[0].Len()) is selected.
//
// Ownership protocol: NextBatch (and any producer) transfers ownership
// of the returned batch to the caller. A consumer that has fully
// extracted what it needs may recycle the batch with Release; batches
// marked Shared wrap storage owned by someone else (the column index's
// vectors, another batch's columns) and Release leaves them alone.
type Batch struct {
	Vecs []*Vector
	Sel  []int
	// Shared marks zero-copy batches whose vectors are owned elsewhere;
	// Release must not recycle them.
	Shared bool
	// Owner, set on a Shared view, is the pooled batch whose storage the
	// view borrows. Release on the view forwards to the owner so a
	// consumer that only ever sees the view still recycles the backing
	// batch. Nil for views over storage with independent lifetime (e.g.
	// the column index's own vectors).
	Owner *Batch
	// released poisons an owned batch after its first Release: a second
	// Release must not re-pool the same backing vectors (two NewBatch
	// callers would then share storage and race).
	released atomic.Bool
}

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.Vecs) }

// Cap returns the physical row count (before selection).
func (b *Batch) Cap() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// NumRows returns the selected row count.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Cap()
}

// RowIdx maps logical row i to its physical position.
func (b *Batch) RowIdx(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// AppendRow appends one row to every column (builders only — the batch
// must not carry a selection vector).
func (b *Batch) AppendRow(row types.Row) {
	for c, v := range b.Vecs {
		v.AppendTyped(row[c])
	}
}

// Row materializes logical row i.
func (b *Batch) Row(i int) types.Row {
	p := b.RowIdx(i)
	out := make(types.Row, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Value(p)
	}
	return out
}

// RowInto materializes logical row i into dst (len(dst) == NumCols),
// avoiding the per-row allocation for scratch evaluations.
func (b *Batch) RowInto(dst types.Row, i int) {
	p := b.RowIdx(i)
	for c, v := range b.Vecs {
		dst[c] = v.Value(p)
	}
}

// AppendRows materializes every selected row onto dst. The rows share
// one slab of values, each a capped window of it, so an append to one
// row cannot overwrite the next.
func (b *Batch) AppendRows(dst []types.Row) []types.Row {
	n, w := b.NumRows(), len(b.Vecs)
	if n == 0 {
		return dst
	}
	slab := make([]types.Value, n*w)
	if cap(dst)-len(dst) < n {
		dst = append(make([]types.Row, 0, 2*len(dst)+n), dst...)
	}
	for i := 0; i < n; i++ {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		b.RowInto(row, i)
		dst = append(dst, row)
	}
	return dst
}

// FromRows columnarizes rows (ncols wide — rows may be empty).
// Columnarization runs column-at-a-time: the kind dispatch and null
// checks hoist out of the per-value loop, which is the difference
// between batch mode paying for its inputs once and paying row-mode
// costs twice.
func FromRows(rows []types.Row, ncols int) *Batch {
	b := NewBatch(ncols)
	if len(rows) == 0 {
		return b
	}
	for c := 0; c < ncols; c++ {
		b.Vecs[c].AppendRowsColumn(rows, c)
	}
	return b
}

// NewBatch returns a pooled batch with ncols empty vectors.
func NewBatch(ncols int) *Batch {
	b := batchPool.Get().(*Batch)
	poolGets.Add(1)
	b.Shared = false
	b.Owner = nil
	b.Sel = nil
	b.released.Store(false)
	if cap(b.Vecs) < ncols {
		b.Vecs = make([]*Vector, ncols)
	} else {
		b.Vecs = b.Vecs[:ncols]
	}
	for i := range b.Vecs {
		if b.Vecs[i] == nil {
			b.Vecs[i] = &Vector{}
		}
		b.Vecs[i].reset()
	}
	return b
}

// Release returns a batch to the pool. Shared batches (zero-copy views
// over storage owned elsewhere) forward to their Owner when one is set
// and are otherwise left untouched. Callers must drop every reference to
// the batch and its vectors afterwards.
//
// Double Release of an owned batch is a pool-corruption bug (the same
// backing vectors would be handed to two NewBatch callers); the released
// flag makes the second call a counted no-op instead.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	if b.Shared {
		if o := b.Owner; o != nil {
			b.Owner = nil
			o.Release()
		}
		return
	}
	if !b.released.CompareAndSwap(false, true) {
		poolDoubleReleases.Add(1)
		return
	}
	putSel(b.Sel)
	b.Sel = nil
	poolPuts.Add(1)
	batchPool.Put(b)
}

// batchPool recycles batches and their vector storage: the executor hot
// loops (scan columnarization, join/agg output) would otherwise trade
// the row path's lock traffic for GC pressure.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// selPool recycles selection vectors (one refinement per filter per
// batch in steady state).
var selPool = sync.Pool{New: func() any { return make([]int, 0, DefaultSize) }}

// GetSel returns an empty selection slice from the pool.
func GetSel() []int { return selPool.Get().([]int)[:0] }

// putSel returns a selection slice to the pool.
func putSel(sel []int) {
	if sel != nil {
		selPool.Put(sel[:0]) //nolint:staticcheck // slice header reuse is the point
	}
}

// PutSel releases a selection slice that was detached from a batch.
func PutSel(sel []int) { putSel(sel) }

// Pool traffic counters, exported through PoolStats for the cluster
// metrics snapshot. poolDoubleReleases counts Release calls blocked by
// the poison flag — nonzero means a consumer has an ownership bug.
var (
	poolGets           atomic.Int64
	poolPuts           atomic.Int64
	poolDoubleReleases atomic.Int64
)

// PoolStats reports cumulative batch-pool traffic across the process.
func PoolStats() (gets, puts, doubleReleases int64) {
	return poolGets.Load(), poolPuts.Load(), poolDoubleReleases.Load()
}
