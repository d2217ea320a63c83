package executor

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/vector"
)

// InstrumentedBatch wraps a BatchOperator and accumulates per-call
// rows-out (the selected row count of each produced batch) and wall
// time into Stats — the EXPLAIN ANALYZE measurement point. The wrapper
// exists only when analysis is requested, so uninstrumented plans pay
// nothing.
type InstrumentedBatch struct {
	Op    BatchOperator
	Stats *obs.OpStats
	clock obs.Clock
}

// InstrumentBatch wraps op so every NextBatch call records into stats.
func InstrumentBatch(op BatchOperator, stats *obs.OpStats) *InstrumentedBatch {
	return &InstrumentedBatch{Op: op, Stats: stats, clock: obs.Wall}
}

// Columns implements BatchOperator.
func (w *InstrumentedBatch) Columns() []string { return w.Op.Columns() }

// Open implements BatchOperator.
func (w *InstrumentedBatch) Open() error { return w.Op.Open() }

// NextBatch implements BatchOperator.
func (w *InstrumentedBatch) NextBatch() (*vector.Batch, error) {
	start := w.clock.Now()
	b, err := w.Op.NextBatch()
	d := w.clock.Since(start)
	if err != nil {
		if errors.Is(err, ErrEOF) {
			w.Stats.Record(0, d)
		}
		return nil, err
	}
	w.Stats.Record(int64(b.NumRows()), d)
	return b, nil
}

// Close implements BatchOperator.
func (w *InstrumentedBatch) Close() error { return w.Op.Close() }
