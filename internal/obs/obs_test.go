package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceAndSpanAreNoOps(t *testing.T) {
	var tr *Trace
	s := tr.StartSpan(nil, "anything")
	if s != nil {
		t.Fatalf("StartSpan on nil trace = %v, want nil", s)
	}
	s.End()
	s.Annotate("x=%d", 1)
	if got := s.Duration(); got != 0 {
		t.Fatalf("nil span Duration = %v", got)
	}
	if got := tr.Render(); got != "" {
		t.Fatalf("nil trace Render = %q", got)
	}
	if got := tr.Find("x"); got != nil {
		t.Fatalf("nil trace Find = %v", got)
	}
}

func TestTraceTreeStructureAndRender(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace("execute SELECT 1", fc)
	plan := tr.StartSpan(nil, "plan")
	fc.Advance(100 * time.Microsecond)
	plan.Annotate("cache=miss")
	plan.End()
	scan := tr.StartSpan(nil, "scan shard=t[0]")
	rpc := tr.StartSpan(scan, "rpc dn=dn1")
	fc.Advance(500 * time.Microsecond)
	rpc.End()
	scan.End()
	tr.End()

	if got := plan.Duration(); got != 100*time.Microsecond {
		t.Fatalf("plan duration = %v", got)
	}
	if got := len(tr.Root().Children()); got != 2 {
		t.Fatalf("root children = %d, want 2", got)
	}
	rpcs := tr.Find("rpc ")
	if len(rpcs) != 1 || rpcs[0].Duration() != 500*time.Microsecond {
		t.Fatalf("rpc spans = %v", rpcs)
	}
	// The rpc span must be nested under the scan span, not the root.
	if got := scan.FindUnder("rpc "); len(got) != 1 {
		t.Fatalf("rpc not nested under scan: %v", got)
	}
	out := tr.Render()
	for _, want := range []string{"execute SELECT 1", "  plan", "[cache=miss]", "    rpc dn=dn1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("root", nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.StartSpan(nil, "work")
				s.Annotate("j=%d", j)
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Find("work")); got != 16*50 {
		t.Fatalf("spans = %d, want %d", got, 16*50)
	}
}

func TestCounterAndNilCounter(t *testing.T) {
	var nilC *Counter
	nilC.Inc()
	nilC.Add(5)
	if nilC.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	c := &Counter{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Millisecond)
	if nilH.Count() != 0 || nilH.Mean() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	h := &Histogram{}
	for i := 0; i < 99; i++ {
		h.Observe(80 * time.Microsecond)
	}
	h.Observe(10 * time.Second) // one outlier into the +Inf bucket
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Quantile(0.5); got != 100*time.Microsecond {
		t.Fatalf("p50 = %v, want 100µs bucket bound", got)
	}
	if got := h.Quantile(1.0); got <= histBuckets[len(histBuckets)-1] {
		t.Fatalf("p100 = %v, want past the last bound", got)
	}
	if h.Mean() == 0 || h.Sum() == 0 {
		t.Fatal("mean/sum should be nonzero")
	}
}

func TestRegistrySnapshotAndNilRegistry(t *testing.T) {
	var nilR *Registry
	nilR.Counter("x").Inc()        // must not panic
	nilR.Histogram("y").Observe(1) // must not panic
	if got := nilR.Snapshot(); got != "" {
		t.Fatalf("nil registry snapshot = %q", got)
	}

	r := NewRegistry()
	r.Counter("txn.commit").Add(3)
	r.Counter("txn.commit").Inc() // same instrument
	r.Histogram("rpc.intra_dc").Observe(90 * time.Microsecond)
	snap := r.Snapshot()
	if !strings.Contains(snap, "txn.commit 4") {
		t.Fatalf("snapshot missing counter:\n%s", snap)
	}
	if !strings.Contains(snap, "rpc.intra_dc count=1") {
		t.Fatalf("snapshot missing histogram:\n%s", snap)
	}
}

func TestOpStats(t *testing.T) {
	var nilO *OpStats
	nilO.Record(10, time.Millisecond)
	if nilO.Summary() != "actual: not executed" {
		t.Fatalf("nil summary = %q", nilO.Summary())
	}
	o := &OpStats{}
	o.Record(3, 2*time.Millisecond)
	o.Record(0, time.Millisecond)
	if o.Rows() != 3 || o.Calls() != 2 || o.Time() != 3*time.Millisecond {
		t.Fatalf("stats = rows=%d calls=%d time=%v", o.Rows(), o.Calls(), o.Time())
	}
	if !strings.Contains(o.Summary(), "actual rows=3") {
		t.Fatalf("summary = %q", o.Summary())
	}
}

func TestFakeClockSleepAndAdvance(t *testing.T) {
	fc := NewFakeClock(time.Unix(100, 0))
	done := make(chan struct{})
	go func() {
		fc.Sleep(50 * time.Millisecond)
		close(done)
	}()
	// Wait for the sleeper to park.
	for fc.Sleepers() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("sleeper woke before Advance")
	case <-time.After(5 * time.Millisecond):
	}
	fc.Advance(49 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sleeper woke early")
	case <-time.After(5 * time.Millisecond):
	}
	fc.Advance(time.Millisecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleeper never woke")
	}
	if fc.Sleepers() != 0 {
		t.Fatalf("sleepers = %d after wake", fc.Sleepers())
	}
	fc.Sleep(0) // non-positive returns immediately
}

func TestWallClock(t *testing.T) {
	start := Wall.Now()
	Wall.Sleep(time.Millisecond)
	if Wall.Since(start) <= 0 {
		t.Fatal("wall clock did not advance")
	}
	if Or(nil) != Wall {
		t.Fatal("Or(nil) should be Wall")
	}
	fc := NewFakeClock(time.Unix(0, 0))
	if Or(fc) != Clock(fc) {
		t.Fatal("Or(fc) should be fc")
	}
	if Wall.Until(start.Add(time.Hour)) <= 0 {
		t.Fatal("Until should be positive for a future time")
	}
}
