package simnet

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Delay blocks the calling goroutine for d of injected time: a network
// leg, a redo flush, a replica's apply lag, a DN's service cost. Every
// such wait in simnet, paxos and dn goes through here, so injected time
// has one owner (a virtual-time scheduler can later replace it). d <= 0
// returns at once.
//
// Delay never returns before d has passed, and it returns close to d even
// for sub-millisecond waits, which the runtime timer cannot do: when the
// process is idle its sleeps round up to ~1.05 ms on a Linux host, so an
// 80 µs intra-DC round trip used to cost ~1.2 ms. Every wait joins one
// deadline queue whose waker goroutine blocks on an alarm (a timerfd on
// Linux) set for the earliest deadline. The waker waits in the runtime's
// network poller, so it holds no processor while it waits and the host's
// CPUs stay with the goroutines that have work. Measured on a 2-core
// Linux host, an idle process's 500 µs wait ends a median ~20 µs late
// (BenchmarkDelayUnderLoad), and an 80 µs round trip takes ~115 µs
// (simnet.rtt_intra_us in the standing benchmark's traced xdc_write
// pass).
func Delay(d time.Duration) { delays.wait(d) }

// delays is the process-wide deadline queue behind Delay.
var delays = newDelayQueue()

// epoch anchors the queue's monotonic clock.
var epoch = time.Now()

func monoNow() time.Duration { return time.Since(epoch) }

// sleeper is one parked wait. The waker sends on ch exactly once, when
// the deadline has passed; ch is buffered so that send never blocks.
type sleeper struct {
	at time.Duration
	ch chan struct{}
}

var sleeperPool = sync.Pool{New: func() any { return &sleeper{ch: make(chan struct{}, 1)} }}

// sleepers is a min-heap of parked waits by deadline.
type sleepers []*sleeper

func (h sleepers) Len() int           { return len(h) }
func (h sleepers) Less(i, j int) bool { return h[i].at < h[j].at }
func (h sleepers) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sleepers) Push(x any)        { *h = append(*h, x.(*sleeper)) }
func (h *sleepers) Pop() any {
	old := *h
	s := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return s
}

// delayQueue serves injected waits. Its waker goroutine is started by the
// first wait and lives as long as the process; it parks on wake whenever
// the heap is empty, so an idle queue costs no CPU.
type delayQueue struct {
	start sync.Once
	alarm *alarm

	mu     sync.Mutex
	heap   sleepers
	parked bool
	wake   chan struct{} // cap 1: at most one wake-up is ever pending
	// armedFor is the deadline the alarm is set for, 0 while the waker
	// is not waiting on it. A wait with an earlier deadline re-arms it.
	armedFor time.Duration
	// loops counts waker iterations that found work; it stops advancing
	// while the waker is parked.
	loops atomic.Int64
}

func newDelayQueue() *delayQueue {
	return &delayQueue{wake: make(chan struct{}, 1)}
}

func (q *delayQueue) wait(d time.Duration) {
	if d <= 0 {
		return
	}
	s := sleeperPool.Get().(*sleeper)
	s.at = monoNow() + d
	q.start.Do(func() {
		q.alarm = newAlarm()
		go q.run()
	})
	q.mu.Lock()
	heap.Push(&q.heap, s)
	switch {
	case q.parked:
		q.parked = false
		q.wake <- struct{}{}
	case q.armedFor != 0 && s.at < q.armedFor:
		q.alarm.set(s.at - monoNow())
		q.armedFor = s.at
	}
	q.mu.Unlock()
	<-s.ch
	sleeperPool.Put(s)
}

// popDue removes every sleeper whose deadline is at or before now, in
// deadline order, and returns the time until the next deadline (0 if
// the heap is empty). The caller holds mu.
func (q *delayQueue) popDue(now time.Duration, due func(*sleeper)) time.Duration {
	for len(q.heap) > 0 && q.heap[0].at <= now {
		due(heap.Pop(&q.heap).(*sleeper))
	}
	if len(q.heap) == 0 {
		return 0
	}
	return q.heap[0].at - now
}

// run is the waker: release what is due, set the alarm for the earliest
// deadline left, wait for it.
func (q *delayQueue) run() {
	release := func(s *sleeper) { s.ch <- struct{}{} }
	for {
		q.mu.Lock()
		q.armedFor = 0
		for len(q.heap) == 0 {
			q.parked = true
			q.mu.Unlock()
			<-q.wake
			q.mu.Lock()
		}
		q.loops.Add(1)
		now := monoNow()
		next := q.popDue(now, release)
		if next > 0 {
			q.alarm.set(next)
			q.armedFor = now + next
		}
		q.mu.Unlock()
		if next > 0 {
			q.alarm.wait()
		}
	}
}
