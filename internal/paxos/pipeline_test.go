package paxos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// tunedGroup mirrors group but lets each test override Config knobs and
// attaches a live metrics registry per node.
type tunedGroup struct {
	net     *simnet.Network
	nodes   map[string]*Node
	regs    map[string]*obs.Registry
	mu      sync.Mutex
	applied map[string][]wal.Record
}

func newTunedGroup(t *testing.T, members []Member, mod func(name string, cfg *Config)) *tunedGroup {
	t.Helper()
	g := &tunedGroup{
		net:     simnet.New(simnet.ZeroTopology()),
		nodes:   make(map[string]*Node),
		regs:    make(map[string]*obs.Registry),
		applied: make(map[string][]wal.Record),
	}
	for _, m := range members {
		m := m
		reg := obs.NewRegistry()
		cfg := Config{
			Group:           "g1",
			Self:            m.Name,
			Members:         members,
			Net:             g.net,
			HeartbeatEvery:  2 * time.Millisecond,
			ElectionTimeout: 40 * time.Millisecond,
			Pipelined:       true,
			Seed:            42,
			Metrics:         reg,
			OnApply: func(recs []wal.Record, start, end wal.LSN) {
				g.mu.Lock()
				g.applied[m.Name] = append(g.applied[m.Name], recs...)
				g.mu.Unlock()
			},
		}
		if mod != nil {
			mod(m.Name, &cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.nodes[m.Name] = n
		g.regs[m.Name] = reg
	}
	t.Cleanup(func() {
		for _, n := range g.nodes {
			n.Stop()
		}
	})
	return g
}

func (g *tunedGroup) startAll() {
	for _, n := range g.nodes {
		n.Start()
	}
}

func (g *tunedGroup) appliedOn(name string) []wal.Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]wal.Record(nil), g.applied[name]...)
}

func (g *tunedGroup) logBytes(t *testing.T, name string) []byte {
	t.Helper()
	log := g.nodes[name].Log()
	b, err := log.ReadBytes(log.BaseLSN(), log.TailLSN())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGroupCommitBatchesConcurrentProposals drives many concurrent
// committers into one accumulation window and checks that the leader
// issued far fewer redo flushes than proposals — the defining property
// of group commit.
func TestGroupCommitBatchesConcurrentProposals(t *testing.T) {
	g := newTunedGroup(t, threeMembers(), func(_ string, cfg *Config) {
		cfg.GroupCommitWindow = 2 * time.Millisecond
	})
	g.nodes["dn1"].Bootstrap()
	g.startAll()
	leader := g.nodes["dn1"]
	if _, err := leader.ProposeAndWait(insertRec("warm", "up")); err != nil {
		t.Fatal(err)
	}
	base := leader.MetricsSnapshot()

	const writers = 64
	start := make(chan struct{})
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if _, err := leader.ProposeAndWait(insertRec(fmt.Sprintf("k%d", w), "v")); err != nil {
				errs <- err
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := leader.MetricsSnapshot()
	flushes := m.Flushes - base.Flushes
	mtrs := m.GroupedMTRs - base.GroupedMTRs
	if mtrs != writers {
		t.Fatalf("grouped MTRs = %d, want %d", mtrs, writers)
	}
	if flushes >= writers/2 {
		t.Fatalf("group commit did not batch: %d flushes for %d concurrent proposals", flushes, writers)
	}
	// The obs registry and the protocol snapshot must agree.
	if got := g.regs["dn1"].Counter("paxos.flushes").Value(); got != m.Flushes {
		t.Fatalf("registry flushes %d != snapshot %d", got, m.Flushes)
	}
	if got := g.regs["dn1"].Counter("paxos.group_size").Value(); got != m.GroupedMTRs {
		t.Fatalf("registry group_size %d != snapshot %d", got, m.GroupedMTRs)
	}
}

// TestGroupCommitAblationMatchesSeedBytes replays an identical workload
// into a group with the window disabled (the seed's flush-per-MTR
// behavior) and one with grouping on: log content must be byte-identical
// on every replica, and the ablation must flush exactly once per MTR.
func TestGroupCommitAblationMatchesSeedBytes(t *testing.T) {
	mk := func(window time.Duration) *tunedGroup {
		return newTunedGroup(t, threeMembers(), func(_ string, cfg *Config) {
			cfg.GroupCommitWindow = window
		})
	}
	seed := mk(0)
	grouped := mk(500 * time.Microsecond)
	for _, g := range []*tunedGroup{seed, grouped} {
		g.nodes["dn1"].Bootstrap()
		g.startAll()
	}
	baseFlushes := seed.nodes["dn1"].MetricsSnapshot().Flushes

	const n = 40
	for i := 0; i < n; i++ {
		rec := insertRec(fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
		if _, err := seed.nodes["dn1"].ProposeAndWait(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := grouped.nodes["dn1"].ProposeAndWait(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := seed.nodes["dn1"].MetricsSnapshot().Flushes - baseFlushes; got != n {
		t.Fatalf("ablation flushed %d times, want one per MTR (%d)", got, n)
	}

	want := seed.logBytes(t, "dn1")
	if got := grouped.logBytes(t, "dn1"); !bytes.Equal(got, want) {
		t.Fatalf("grouped leader log (%d bytes) differs from seed leader log (%d bytes)",
			len(got), len(want))
	}
	for _, f := range []string{"dn2", "dn3"} {
		f := f
		waitFor(t, 2*time.Second, "follower "+f+" caught up", func() bool {
			return grouped.nodes[f].Log().TailLSN() == grouped.nodes["dn1"].Log().TailLSN() &&
				seed.nodes[f].Log().TailLSN() == seed.nodes["dn1"].Log().TailLSN()
		})
		if got := grouped.logBytes(t, f); !bytes.Equal(got, want) {
			t.Fatalf("grouped follower %s log diverges from seed bytes", f)
		}
		if got := seed.logBytes(t, f); !bytes.Equal(got, want) {
			t.Fatalf("seed follower %s log diverges from seed leader bytes", f)
		}
	}
}

// TestProposeDepositionRaceReturnsNotLeader hammers Propose from several
// goroutines while a higher-epoch leader deposes the node. The role
// check and the log append happen under one lock, so no proposer may
// slip an MTR into the log after the truncation, and the straggling
// group flush must not raise the durable watermark past the tail.
func TestProposeDepositionRaceReturnsNotLeader(t *testing.T) {
	g := newTunedGroup(t, threeMembers(), func(_ string, cfg *Config) {
		cfg.ElectionTimeout = time.Hour // freeze roles after the forced deposition
		cfg.GroupCommitWindow = 200 * time.Microsecond
		cfg.FlushDelay = 50 * time.Microsecond
	})
	g.nodes["dn1"].Bootstrap()
	g.startAll()
	leader := g.nodes["dn1"]
	if _, err := leader.ProposeAndWait(insertRec("k0", "v0")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := leader.Propose(insertRec(fmt.Sprintf("w%d-%d", w, i), "v")); err != nil {
					if !errors.Is(err, ErrNotLeader) && !errors.Is(err, ErrStopped) {
						t.Errorf("unexpected propose error: %v", err)
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	leader.handleAppend(appendMsg{Group: "g1", Epoch: 99, Leader: "dn2"})
	wg.Wait()

	if _, err := leader.Propose(insertRec("late", "x")); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("propose after deposition: err = %v, want ErrNotLeader", err)
	}
	tail := leader.Log().TailLSN()
	time.Sleep(5 * time.Millisecond) // let any straggling flush land
	if got := leader.Log().TailLSN(); got != tail {
		t.Fatalf("log grew after deposition: %d -> %d", tail, got)
	}
	if fl := leader.Log().FlushedLSN(); fl > tail {
		t.Fatalf("flushed watermark %d beyond tail %d", fl, tail)
	}
}

// TestAwaitDurableFastPathRecordsQuorumWait checks that an AwaitDurable
// call that finds its LSN already durable still lands a (zero) sample in
// paxos.quorum_wait, so the histogram reflects every commit rather than
// only the parked ones.
func TestAwaitDurableFastPathRecordsQuorumWait(t *testing.T) {
	g := newTunedGroup(t, threeMembers(), nil)
	g.nodes["dn1"].Bootstrap()
	g.startAll()
	leader := g.nodes["dn1"]
	end, err := leader.ProposeAndWait(insertRec("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	h := g.regs["dn1"].Histogram("paxos.quorum_wait")
	before := h.Count()
	if err := leader.AwaitDurable(end); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != before+1 {
		t.Fatalf("quorum_wait count = %d after fast-path AwaitDurable, want %d", got, before+1)
	}
}

// TestLeaseAndLeaseReadsDrivenByFakeClock pins every node to a fake
// clock: lease expiry, lease-read admission, and quorum-read fallback
// must all follow advances of the injected clock, independent of real
// time.
func TestLeaseAndLeaseReadsDrivenByFakeClock(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	fc := obs.NewFakeClock(t0)
	g := newTunedGroup(t, threeMembers(), func(_ string, cfg *Config) {
		cfg.Clock = fc
		cfg.LeaseDuration = 8 * time.Millisecond // of fake time
		cfg.ElectionTimeout = time.Hour          // fake-clock timers never fire
	})
	g.nodes["dn1"].Bootstrap()
	g.startAll()
	leader := g.nodes["dn1"]
	if _, err := leader.ProposeAndWait(insertRec("k", "v")); err != nil {
		t.Fatal(err)
	}

	// Acks stamp fake-clock times, so the lease holds at fake t0 no
	// matter how much real time the commit above took.
	if !leader.HoldsLease() {
		t.Fatal("leader should hold its lease at fake t0")
	}
	if !leader.LeaseRead() {
		t.Fatal("lease read should be admitted at fake t0")
	}

	// Cut off both peers, then advance fake time past the lease.
	g.net.SetDown("g1/dn2", true)
	g.net.SetDown("g1/dn3", true)
	fc.Advance(10 * time.Millisecond)
	if leader.HoldsLease() {
		t.Fatal("lease should have expired at fake t0+10ms")
	}
	if leader.LeaseRead() {
		t.Fatal("lease read must be refused on an expired lease")
	}
	if err := leader.ConfirmLeadership(); err == nil {
		t.Fatal("quorum read should fail with both peers down")
	}

	// Restore the peers: fresh heartbeat acks (stamped with the advanced
	// fake now) re-extend the lease.
	g.net.SetDown("g1/dn2", false)
	g.net.SetDown("g1/dn3", false)
	waitFor(t, 2*time.Second, "lease renewal after peers return", leader.HoldsLease)
	if !leader.LeaseRead() {
		t.Fatal("lease read should be admitted after renewal")
	}
	if err := leader.ConfirmLeadership(); err != nil {
		t.Fatalf("quorum read after renewal: %v", err)
	}

	if lr := g.regs["dn1"].Counter("paxos.lease_reads").Value(); lr < 2 {
		t.Fatalf("lease_reads = %d, want >= 2", lr)
	}
	if qr := g.regs["dn1"].Counter("paxos.quorum_reads").Value(); qr < 1 {
		t.Fatalf("quorum_reads = %d, want >= 1", qr)
	}
}

// TestWaiterHeapMatchesSortedModel drives the typed waiter heap with
// random parks, removals by position and DLSN releases, and checks every
// step against a plain slice: the heap holds the same waiters, its top is
// the lowest LSN, and a release hands back exactly the waiters at or
// below the DLSN, in LSN order.
func TestWaiterHeapMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var h waiterHeap
	var model []commitWaiter
	heapOrdered := func() {
		t.Helper()
		for i := 1; i < len(h); i++ {
			if h[(i-1)/2].lsn > h[i].lsn {
				t.Fatalf("heap order broken at %d: parent %d > child %d", i, h[(i-1)/2].lsn, h[i].lsn)
			}
		}
		if len(h) != len(model) {
			t.Fatalf("heap holds %d waiters, model %d", len(h), len(model))
		}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // park
			w := commitWaiter{lsn: wal.LSN(rng.Intn(500)), ch: make(chan error, 1)}
			h.push(w)
			model = append(model, w)
		case op < 7 && len(h) > 0: // a deadline unparks one waiter
			i := rng.Intn(len(h))
			w := h.removeAt(i)
			j := slices.IndexFunc(model, func(m commitWaiter) bool { return m.ch == w.ch })
			if j < 0 {
				t.Fatalf("removeAt(%d) returned a waiter that was not parked", i)
			}
			model = slices.Delete(model, j, j+1)
		default: // DLSN advances: release everything it covers
			dlsn := wal.LSN(rng.Intn(500))
			var got []wal.LSN
			for len(h) > 0 && h[0].lsn <= dlsn {
				got = append(got, h.removeAt(0).lsn)
			}
			var want []wal.LSN
			model = slices.DeleteFunc(model, func(m commitWaiter) bool {
				if m.lsn <= dlsn {
					want = append(want, m.lsn)
					return true
				}
				return false
			})
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("release at DLSN %d = %v, want %v", dlsn, got, want)
			}
		}
		heapOrdered()
	}
}

// TestGroupCommitWindowAfterStaleTick: when the byte cap closes a window
// whose timer has already fired, the timer's tick must not close the next
// window early. Each round lets the window timer fire, signals the byte
// cap, and waits the window out; then the next window must last at least
// GroupCommitWindow. Only the lower bound is asserted: a wait may run
// late, never early.
func TestGroupCommitWindowAfterStaleTick(t *testing.T) {
	const window = 2 * time.Millisecond
	n := &Node{done: make(chan struct{}), gcFull: make(chan struct{}, 1)}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	capClosed := 0
	for round := 0; round < 40; round++ {
		timer.Reset(time.Microsecond)
		time.Sleep(200 * time.Microsecond) // the window's timer fires...
		n.gcFull <- struct{}{}             // ...and the byte cap closes the same window
		if !n.awaitWindow(timer) {
			t.Fatal("awaitWindow reported a stop")
		}
		select {
		case <-n.gcFull: // the timer won; drop the cap signal as flusherLoop does
		default:
			capClosed++
		}
		start := time.Now()
		timer.Reset(window)
		n.awaitWindow(timer)
		if d := time.Since(start); d < window {
			t.Fatalf("round %d: the window after a cap-closed one lasted %v, want >= %v", round, d, window)
		}
	}
	if capClosed == 0 {
		t.Fatal("the byte cap never closed a window in 40 rounds")
	}
}
