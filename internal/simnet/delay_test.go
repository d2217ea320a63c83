package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestDelayNeverReturnsEarly: over many concurrent waits from 1 ns to
// 3 ms, which re-arm the alarm for earlier deadlines all the time, not
// one returns before its deadline.
func TestDelayNeverReturnsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	waits := []time.Duration{1, time.Microsecond, 3 * time.Millisecond}
	for len(waits) < 1200 {
		waits = append(waits, time.Duration(rng.Int63n(int64(3*time.Millisecond)+1)))
	}
	var wg sync.WaitGroup
	for _, d := range waits {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			start := time.Now()
			Delay(d)
			if got := time.Since(start); got < d {
				t.Errorf("Delay(%v) returned after %v", d, got)
			}
		}(d)
	}
	wg.Wait()
}

// TestDelayQueueReleasesInDeadlineOrder: the waker releases due sleepers
// earliest deadline first and leaves later ones parked, reporting the
// time left until the next.
func TestDelayQueueReleasesInDeadlineOrder(t *testing.T) {
	q := newDelayQueue()
	rng := rand.New(rand.NewSource(2))
	var ats []time.Duration
	for i := 0; i < 500; i++ {
		at := time.Duration(rng.Int63n(int64(time.Second)))
		ats = append(ats, at)
		heap.Push(&q.heap, &sleeper{at: at})
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	cut := ats[300]

	var got []time.Duration
	collect := func(s *sleeper) { got = append(got, s.at) }
	next := q.popDue(cut, collect)
	if len(got) < 301 || got[len(got)-1] > cut || q.heap[0].at <= cut {
		t.Fatalf("popDue(%v) released %d sleepers, last %v; next parked %v", cut, len(got), got[len(got)-1], q.heap[0].at)
	}
	if want := q.heap[0].at - cut; next != want {
		t.Fatalf("time to next deadline = %v, want %v", next, want)
	}
	if next = q.popDue(time.Second, collect); next != 0 || len(q.heap) != 0 {
		t.Fatalf("drained queue reports next %v with %d parked", next, len(q.heap))
	}
	for i := range ats {
		if got[i] != ats[i] {
			t.Fatalf("release %d at deadline %v, want %v", i, got[i], ats[i])
		}
	}
}

// TestDelayNonPositiveSkipsQueue: a zero or negative wait returns without
// pushing a sleeper or starting the waker.
func TestDelayNonPositiveSkipsQueue(t *testing.T) {
	q := newDelayQueue()
	q.wait(0)
	q.wait(-time.Second)
	if len(q.heap) != 0 || q.loops.Load() != 0 {
		t.Fatalf("heap %d, waker loops %d; want an untouched queue", len(q.heap), q.loops.Load())
	}
	started := true
	q.start.Do(func() { started = false })
	if started {
		t.Fatal("a non-positive wait started the waker")
	}
}

// TestDelayWakerParksWhenDrained: once every sleeper has been released
// the waker parks, and its loop counter stops advancing.
func TestDelayWakerParksWhenDrained(t *testing.T) {
	q := newDelayQueue()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q.wait(time.Duration(i) * 20 * time.Microsecond)
		}(i)
	}
	wg.Wait()
	parked := func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.parked
	}
	for deadline := time.Now().Add(5 * time.Second); !parked(); {
		if time.Now().After(deadline) {
			t.Fatal("waker did not park after the heap drained")
		}
		time.Sleep(time.Millisecond)
	}
	loops := q.loops.Load()
	if loops == 0 {
		t.Fatal("waker never ran")
	}
	time.Sleep(20 * time.Millisecond)
	if got := q.loops.Load(); got != loops || !parked() {
		t.Fatalf("parked waker kept looping: %d -> %d iterations", loops, got)
	}
}

// TestCallNeverBeatsRTT: a Call over the paper's topology takes at least
// its configured round trip, intra- and inter-DC alike.
func TestCallNeverBeatsRTT(t *testing.T) {
	n := New(DefaultTopology())
	n.Register("a1", DC1, echoHandler)
	n.Register("a2", DC1, echoHandler)
	n.Register("b", DC2, echoHandler)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		to := "a2"
		if g%2 == 1 {
			to = "b"
		}
		rtt, err := n.RTTBetween("a1", to)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				start := time.Now()
				if _, err := n.Call("a1", to, i); err != nil {
					t.Error(err)
					return
				}
				if got := time.Since(start); got < rtt {
					t.Errorf("call a1 -> %s returned after %v, RTT is %v", to, got, rtt)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDelayUnderLoad compares Delay with the runtime timer as the
// host's CPU fills up: g goroutines share b.N iterations, each a 500 µs
// wait followed by 50 µs of CPU work, so g=2 leaves the host idle and
// g=64 asks for ~6 cores. It reports how late the median wait ended
// and how many cores the process kept busy.
//
//	go test -run '^$' -bench DelayUnderLoad -benchtime 20000x ./internal/simnet/
func BenchmarkDelayUnderLoad(b *testing.B) {
	const wait, work = 500 * time.Microsecond, 50 * time.Microsecond
	waits := map[string]func(time.Duration){"delay": Delay, "runtime-timer": time.Sleep}
	for _, g := range []int{2, 16, 64} {
		for _, name := range []string{"delay", "runtime-timer"} {
			b.Run(fmt.Sprintf("%s/g=%d", name, g), func(b *testing.B) {
				sleep := waits[name]
				var next atomic.Int64
				lates := make([][]time.Duration, g)
				cpu0, start := cpuTime(), time.Now()
				var wg sync.WaitGroup
				for i := range lates {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							t0 := time.Now()
							sleep(wait)
							lates[i] = append(lates[i], time.Since(t0)-wait)
							for end := time.Now().Add(work); time.Now().Before(end); {
							}
						}
					}(i)
				}
				wg.Wait()
				elapsed := time.Since(start)
				var all []time.Duration
				for _, l := range lates {
					all = append(all, l...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				b.ReportMetric(float64(all[len(all)/2].Microseconds()), "late-p50-us")
				b.ReportMetric(float64(cpuTime()-cpu0)/float64(elapsed), "cores")
			})
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
