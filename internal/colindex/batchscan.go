package colindex

import (
	"repro/internal/hlc"
	"repro/internal/sql"
	"repro/internal/vector"
)

// ScanBatch returns the rows visible at the snapshot that pass the
// filter (bound against schema positions) as one Shared batch: its
// vectors alias the index's column storage directly (zero copy, raw or
// encoded — the batch engine executes on encoded payloads without
// decoding them) and its selection vector holds the passing positions.
// Projection selects and orders the output columns (nil = all); limit
// bounds the selection (0 = none). AppendRows gives the row form.
//
// Safe under concurrent maintenance: column storage is append-only
// under the index write lock, and Vector.View snapshots the mutable
// boundary state (bit-pack tail words, live RLE run) while the read
// lock is held.
func (x *Index) ScanBatch(snapshot hlc.Timestamp, filter sql.Expr, projection []int, limit int) (*vector.Batch, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ts := x.clampSnapshot(snapshot)
	f, err := x.compileFilter(filter)
	if err != nil {
		return nil, err
	}
	if err := x.checkCols(projection); err != nil {
		return nil, err
	}
	x.noteScan(x.touchedCols(f, projection))
	n := x.vis.len()
	stop, size := 0, n
	if filter == nil && limit > 0 && limit < n {
		stop, size = limit, limit
	}
	sel, err := f.Refine(x.vecs, x.vis.appendVisible(make([]int, 0, size), ts, stop))
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(sel) > limit {
		sel = sel[:limit]
	}
	cols := projection
	if cols == nil {
		cols = make([]int, len(x.cols))
		for i := range cols {
			cols[i] = i
		}
	}
	b := &vector.Batch{Vecs: make([]*vector.Vector, len(cols)), Sel: sel, Shared: true}
	for k, c := range cols {
		b.Vecs[k] = x.cols[c].data.View(n)
	}
	return b, nil
}
