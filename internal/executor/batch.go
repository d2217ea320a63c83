// Package executor implements PolarDB-X's query execution operators and
// the MPP fragment machinery (paper §VI-C): batch-at-a-time volcano
// operators (scan sources, filter, project, hash join, nested-loop
// join, hash aggregation with partial/final split, sort, limit),
// bounded exchange queues with producer backpressure between fragments,
// and cooperative fragment jobs that run on the htap time-sliced
// scheduler.
//
// There is one engine (§VI-C/§VI-E): operators exchange column-major
// vector.Batch values (~1024 rows), so iteration, predicate evaluation,
// group-key hashing and exchange locking amortize over the batch. TP
// and AP plans run the same operators; they differ in resource group,
// data source and fan-out, which the CN decides when it lowers a plan.
package executor

import (
	"errors"

	"repro/internal/types"
	"repro/internal/vector"
)

// ErrEOF signals operator exhaustion.
var ErrEOF = errors.New("executor: end of rows")

// BatchOperator is the batch-at-a-time volcano interface. NextBatch
// transfers ownership of the returned batch to the caller (see the
// vector.Batch ownership protocol); it returns ErrEOF when drained.
type BatchOperator interface {
	Columns() []string
	Open() error
	NextBatch() (*vector.Batch, error)
	Close() error
}

// BatchesSource serves pre-built batches (columnarized DN responses,
// zero-copy column-index scans, test fixtures).
type BatchesSource struct {
	Cols    []string
	Batches []*vector.Batch
	pos     int
}

// Columns implements BatchOperator.
func (s *BatchesSource) Columns() []string { return s.Cols }

// Open implements BatchOperator.
func (s *BatchesSource) Open() error { s.pos = 0; return nil }

// NextBatch implements BatchOperator.
func (s *BatchesSource) NextBatch() (*vector.Batch, error) {
	for s.pos < len(s.Batches) {
		b := s.Batches[s.pos]
		s.pos++
		if b != nil && b.NumRows() > 0 {
			return b, nil
		}
	}
	return nil, ErrEOF
}

// Close implements BatchOperator.
func (s *BatchesSource) Close() error { return nil }

// BatchCallbackSource pulls batches lazily from a fetch function (how
// DN shard scans stream into the batch executor; fetch returns nil when
// drained).
type BatchCallbackSource struct {
	Cols  []string
	Fetch func() (*vector.Batch, error)
	done  bool
}

// Columns implements BatchOperator.
func (s *BatchCallbackSource) Columns() []string { return s.Cols }

// Open implements BatchOperator.
func (s *BatchCallbackSource) Open() error { return nil }

// NextBatch implements BatchOperator.
func (s *BatchCallbackSource) NextBatch() (*vector.Batch, error) {
	for !s.done {
		b, err := s.Fetch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.done = true
			break
		}
		if b.NumRows() > 0 {
			return b, nil
		}
		b.Release()
	}
	return nil, ErrEOF
}

// Close implements BatchOperator.
func (s *BatchCallbackSource) Close() error { return nil }

// NewBatchRowsSource columnarizes a row slice into batches of the
// default size (point-lookup and GSI results, VALUES lists, fixtures).
func NewBatchRowsSource(cols []string, rows []types.Row) *BatchesSource {
	return &BatchesSource{Cols: cols, Batches: BatchesFromRows(rows, len(cols))}
}

// BatchesFromRows splits rows into DefaultSize batches, ncols wide.
func BatchesFromRows(rows []types.Row, ncols int) []*vector.Batch {
	var out []*vector.Batch
	for len(rows) > 0 {
		n := vector.DefaultSize
		if n > len(rows) {
			n = len(rows)
		}
		out = append(out, vector.FromRows(rows[:n], ncols))
		rows = rows[n:]
	}
	return out
}

// CollectBatch drains a batch operator into rows (the coordinator's
// final gather).
func CollectBatch(op BatchOperator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	return drainRows(op)
}

// drainRows materializes the rest of an opened operator's output,
// releasing each batch as it goes.
func drainRows(op BatchOperator) ([]types.Row, error) {
	var out []types.Row
	for {
		b, err := op.NextBatch()
		if errors.Is(err, ErrEOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = b.AppendRows(out)
		b.Release()
	}
}
