package executor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/htap"
	"repro/internal/obs"
	"repro/internal/vector"
)

// DefaultQueueHighWater is the exchange queue bound in batches: with
// ~1024-row batches, 8 buffered batches keep a fragment pipeline busy
// without letting a fast producer balloon memory.
const DefaultQueueHighWater = 8

// BatchQueue is the exchange buffer between fragments: one
// queue operation moves ~1024 rows, and the queue is bounded — a
// producer that reaches the high-water mark blocks (or, on the htap
// scheduler, parks with JobBlocked) until the consumer drains.
type BatchQueue struct {
	// OnWait, when non-nil, is invoked after each consumer wait on an
	// empty queue with the wait's duration (tracing hook). Set it before
	// the consumer starts popping; it is read without locking.
	OnWait func(d time.Duration)

	mu      sync.Mutex
	cond    *sync.Cond
	batches []*vector.Batch
	closed  bool
	err     error
	high    int
	space   chan struct{} // closed when space frees or the queue closes
}

// NewBatchQueue creates a queue bounded at high batches (<=0 uses
// DefaultQueueHighWater).
func NewBatchQueue(high int) *BatchQueue {
	if high <= 0 {
		high = DefaultQueueHighWater
	}
	q := &BatchQueue{high: high}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// TryPush enqueues b, taking ownership. A closed queue drops (and
// recycles) the batch — the consumer aborted. When the queue is full it
// returns ok=false plus a channel that fires when space frees, so
// scheduler-driven producers can park without holding a worker.
func (q *BatchQueue) TryPush(b *vector.Batch) (ok bool, wait <-chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		b.Release()
		return true, nil
	}
	if len(q.batches) >= q.high {
		if q.space == nil {
			q.space = make(chan struct{})
		}
		return false, q.space
	}
	q.batches = append(q.batches, b)
	q.cond.Signal()
	return true, nil
}

// Push blocks until the batch is enqueued (plain-goroutine producers).
func (q *BatchQueue) Push(b *vector.Batch) {
	for {
		ok, wait := q.TryPush(b)
		if ok {
			return
		}
		<-wait
	}
}

// CloseWith marks the stream complete (err nil) or failed and releases
// any blocked producers.
func (q *BatchQueue) CloseWith(err error) {
	q.mu.Lock()
	if !q.closed {
		// Buffered batches stay poppable; only future pushes drop.
		q.closed = true
		q.err = err
		q.cond.Broadcast()
		q.notifySpace()
	}
	q.mu.Unlock()
}

// notifySpace wakes blocked producers; callers hold mu.
func (q *BatchQueue) notifySpace() {
	if q.space != nil {
		close(q.space)
		q.space = nil
	}
}

// Pop blocks for the next batch; ErrEOF at clean end. Time spent
// waiting on an empty queue (the consumer stalled on its producer) is
// accounted to the package exchange-wait counters and the OnWait hook.
func (q *BatchQueue) Pop() (*vector.Batch, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.batches) == 0 && !q.closed {
		start := time.Now()
		for len(q.batches) == 0 && !q.closed {
			q.cond.Wait()
		}
		d := time.Since(start)
		exchangeWaits.Add(1)
		exchangeWaitNanos.Add(int64(d))
		if q.OnWait != nil {
			q.OnWait(d)
		}
	}
	if len(q.batches) > 0 {
		b := q.batches[0]
		q.batches = q.batches[1:]
		if len(q.batches) < q.high {
			q.notifySpace()
		}
		return b, nil
	}
	if q.err != nil {
		return nil, q.err
	}
	return nil, ErrEOF
}

// ArmDeadline poisons the queue when the statement deadline passes:
// CloseWith(obs.ErrDeadlineExceeded) releases every parked producer
// (TryPush waiters, JobBlocked fragments) and surfaces the error to the
// consumer once the buffer drains — a timed-out statement frees its
// exchange instead of wedging scheduler workers. A zero deadline arms
// nothing; a queue that finishes first makes the late fire a no-op.
func (q *BatchQueue) ArmDeadline(clock obs.Clock, deadline time.Time) {
	if deadline.IsZero() {
		return
	}
	clock = obs.Or(clock)
	fired, _ := obs.After(clock, clock.Until(deadline))
	go func() {
		<-fired
		q.CloseWith(fmt.Errorf("batch exchange: %w", obs.ErrDeadlineExceeded))
	}()
}

// Len reports buffered batches (metrics/backpressure tests).
func (q *BatchQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.batches)
}

// Exchange-wait accounting across all BatchQueues in the process.
var (
	exchangeWaits     atomic.Int64
	exchangeWaitNanos atomic.Int64
)

// ExchangeWaitStats reports how often batch-exchange consumers stalled
// on an empty queue and for how long in total.
func ExchangeWaitStats() (waits int64, total time.Duration) {
	return exchangeWaits.Load(), time.Duration(exchangeWaitNanos.Load())
}

// BatchQueueSource adapts a BatchQueue to the BatchOperator interface.
type BatchQueueSource struct {
	Cols []string
	Q    *BatchQueue
	// start, when non-nil, launches the queue's producer on Open.
	start func()
}

// Columns implements BatchOperator.
func (s *BatchQueueSource) Columns() []string { return s.Cols }

// Open implements BatchOperator.
func (s *BatchQueueSource) Open() error {
	if s.start != nil {
		s.start()
		s.start = nil
	}
	return nil
}

// NextBatch implements BatchOperator.
func (s *BatchQueueSource) NextBatch() (*vector.Batch, error) { return s.Q.Pop() }

// Close implements BatchOperator.
func (s *BatchQueueSource) Close() error {
	s.Q.CloseWith(nil)
	return nil
}

// BatchGather merges several batch inputs by draining each in turn, in
// input order — the MPP exchange consumer.
type BatchGather struct {
	Cols   []string
	Inputs []BatchOperator
	cur    int
}

// Columns implements BatchOperator.
func (g *BatchGather) Columns() []string { return g.Cols }

// Open implements BatchOperator.
func (g *BatchGather) Open() error {
	g.cur = 0
	for _, in := range g.Inputs {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

// NextBatch implements BatchOperator.
func (g *BatchGather) NextBatch() (*vector.Batch, error) {
	for g.cur < len(g.Inputs) {
		b, err := g.Inputs[g.cur].NextBatch()
		if errors.Is(err, ErrEOF) {
			g.cur++
			continue
		}
		return b, err
	}
	return nil, ErrEOF
}

// Close implements BatchOperator.
func (g *BatchGather) Close() error {
	var first error
	for _, in := range g.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BatchFragmentJob pumps one fragment's batch operator tree into an
// exchange queue on the htap scheduler. The slice deadline is checked
// once per batch (~1024 rows), not per row, and a full queue parks the
// job with JobBlocked so backpressure frees the worker instead of
// spinning it.
type BatchFragmentJob struct {
	Op  BatchOperator
	Out *BatchQueue

	opened  bool
	pending *vector.Batch // batch awaiting queue space
}

// Run implements htap.Job.
func (f *BatchFragmentJob) Run(slice time.Duration) (htap.JobState, <-chan struct{}, error) {
	if !f.opened {
		if err := f.Op.Open(); err != nil {
			f.Out.CloseWith(err)
			return htap.JobDone, nil, err
		}
		f.opened = true
	}
	deadline := time.Now().Add(slice)
	for {
		if f.pending != nil {
			ok, wait := f.Out.TryPush(f.pending)
			if !ok {
				return htap.JobBlocked, wait, nil
			}
			f.pending = nil
		}
		b, err := f.Op.NextBatch()
		if errors.Is(err, ErrEOF) {
			f.Out.CloseWith(nil)
			_ = f.Op.Close()
			return htap.JobDone, nil, nil
		}
		if err != nil {
			f.Out.CloseWith(err)
			_ = f.Op.Close()
			return htap.JobDone, nil, err
		}
		ok, wait := f.Out.TryPush(b)
		if !ok {
			f.pending = b
			return htap.JobBlocked, wait, nil
		}
		if time.Now().After(deadline) {
			return htap.JobYielded, nil, nil
		}
	}
}

// BatchFragmentAssignment pairs a batch fragment with its CN scheduler.
type BatchFragmentAssignment struct {
	Op    BatchOperator
	Sched *htap.Scheduler
}

// RunBatchFragments executes batch fragments in parallel (one bounded
// exchange queue each) and returns a BatchGather over their outputs.
// The fragments start when the gather is opened, not before, so a
// caller whose plan building fails after this call leaves no fragment
// running that nobody will drain. queueHigh <= 0 uses
// DefaultQueueHighWater.
func RunBatchFragments(group htap.Group, assignments []BatchFragmentAssignment, queueHigh int) *BatchGather {
	return RunBatchFragmentsUntil(group, assignments, queueHigh, nil, time.Time{})
}

// RunBatchFragmentsUntil is RunBatchFragments with every exchange queue
// armed against the statement deadline (zero = unarmed, identical to
// RunBatchFragments).
func RunBatchFragmentsUntil(group htap.Group, assignments []BatchFragmentAssignment, queueHigh int, clock obs.Clock, deadline time.Time) *BatchGather {
	inputs := make([]BatchOperator, len(assignments))
	for i, a := range assignments {
		q := NewBatchQueue(queueHigh)
		q.ArmDeadline(clock, deadline)
		job := &BatchFragmentJob{Op: a.Op, Out: q}
		start := func() { go runToCompletion(job) }
		if sched := a.Sched; sched != nil {
			start = func() { sched.Submit(group, job) }
		}
		inputs[i] = &BatchQueueSource{Cols: a.Op.Columns(), Q: q, start: start}
	}
	var cols []string
	if len(assignments) > 0 {
		cols = assignments[0].Op.Columns()
	}
	return &BatchGather{Cols: cols, Inputs: inputs}
}

// runToCompletion drives a fragment with no scheduler, honoring
// backpressure by sleeping on the wake channel.
func runToCompletion(job *BatchFragmentJob) {
	for {
		state, wake, _ := job.Run(time.Hour)
		switch state {
		case htap.JobDone:
			return
		case htap.JobBlocked:
			if wake != nil {
				<-wake
			}
		}
	}
}
