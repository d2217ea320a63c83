package dn

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// TestROAppliedLSNMonotonicUnderCommitStorm drives a few thousand small
// commits at a replica while DLSN rises under its tail loop and purge
// runs beside it: the replica's applied LSN never moves backwards (the
// RW purges redo up to it) and ends at the DLSN.
func TestROAppliedLSNMonotonicUnderCommitStorm(t *testing.T) {
	inst, _, net := singleInstance(t)
	if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var regressions atomic.Int64
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		var high wal.LSN
		for {
			select {
			case <-stop:
				return
			default:
			}
			if a := ro.AppliedLSN(); a < high {
				regressions.Add(1)
			} else {
				high = a
			}
		}
	}()

	const committers, perCommitter = 8, 400
	var ids atomic.Uint64
	ids.Store(1 << 32)
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := "storm-cn" + string(rune('a'+c))
			net.Register(name, simnet.DC1, func(string, any) (any, error) { return nil, nil })
			clock := hlc.NewClock(nil)
			for i := 0; i < perCommitter; i++ {
				id := ids.Add(1)
				key := int64(c*perCommitter + i)
				for _, msg := range []any{
					MultiWriteReq{TxnID: id, SnapshotTS: clock.Now(), Writes: inserts(userRow(key, "u", key))},
					CommitReq{TxnID: id},
				} {
					if _, err := net.Call(name, "dn1", msg); err != nil {
						t.Errorf("%T: %v", msg, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "replica to reach the DLSN", func() bool {
		return ro.AppliedLSN() >= inst.Paxos().DLSN()
	})
	close(stop)
	watcher.Wait()
	if n := regressions.Load(); n > 0 {
		t.Fatalf("AppliedLSN moved backwards %d times", n)
	}
	if ev := inst.EvictedROs(); len(ev) > 0 {
		t.Fatalf("replica evicted: %v", ev)
	}
}

// TestROReadWaitIsBounded stalls a replica's apply and checks that a
// session-consistent read stops waiting for its LSN at the statement
// deadline riding the request, and when the instance evicts the replica.
func TestROReadWaitIsBounded(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	reg := obs.NewRegistry()
	inst, err := NewInstance(Config{
		Name: "dn1", DC: simnet.DC1, Net: net,
		Group: "g1", Members: []paxos.Member{{Name: "dn1", DC: simnet.DC1}},
		Bootstrap:  true,
		ROLagLimit: 512,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	cl := newClient(t, net, "cn1", simnet.DC1)
	if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}
	ro.SetApplyDelay(time.Minute) // never applies within the test
	commit := func(id int64) wal.LSN {
		return cl.commitRows(t, "dn1", inst.Clock().Now(), userRow(id, strings.Repeat("x", 100), id)).LSN
	}
	read := func(minLSN wal.LSN, deadline time.Time) error {
		_, err := net.Call("cn1", "dn1-ro1", WithDeadline(MultiGetReq{
			Gets: []PointGet{{Table: 1, PK: pkOf(0)}}, SnapshotTS: inst.Clock().Now(), MinLSN: minLSN,
		}, deadline))
		return err
	}
	lsn := commit(0)

	// Deadline: the read gives up when the statement does.
	start := time.Now()
	if err := read(lsn, start.Add(50*time.Millisecond)); !errors.Is(err, obs.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline = %v, want ErrDeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("deadline-bounded read took %v", took)
	}

	// Eviction wakes a reader parked without a deadline.
	parked := make(chan error, 1)
	go func() { parked <- read(lsn, time.Time{}) }()
	for i := int64(1); len(inst.EvictedROs()) == 0; i++ {
		if i > 200 {
			t.Fatal("stalled replica was not evicted")
		}
		commit(i)
	}
	select {
	case err := <-parked:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("read on an evicted replica = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction left a reader parked")
	}
	if got := reg.Counter("dn.ro_evicted").Value(); got != 1 {
		t.Fatalf("dn.ro_evicted = %d, want 1", got)
	}
}

// TestIdleInstanceAllocatesLittle idles a single-member instance, once
// bare and once with a replica, and bounds what it allocates. A replica
// tailing the log parks until DLSN rises: nothing wakes on a timer to
// look for redo, so an idle log collects no waiters.
func TestIdleInstanceAllocatesLittle(t *testing.T) {
	for _, ros := range []int{0, 1} {
		inst, _, _ := singleInstance(t)
		if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ros; r++ {
			ro, err := inst.AddRO("dn1-ro1")
			if err != nil {
				t.Fatal(err)
			}
			if err := ro.WaitApplied(inst.Paxos().DLSN(), time.Now().Add(5*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		// Settle first: the background loops' first passes allocate once.
		time.Sleep(200 * time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		time.Sleep(500 * time.Millisecond)
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		t.Logf("idle instance with %d RO(s): %d objects in 500ms", ros, n)
		if n >= 50 {
			t.Errorf("idle instance with %d RO(s) allocated %d objects in 500ms, want < 50", ros, n)
		}
		inst.Stop()
	}
}

// TestROHaltsOnApplyError proposes a record the replica's applier
// rejects, then commits a row behind it. The replica must halt — evicted
// and counted — and a read that needs the row must fail with ErrStopped
// rather than be served by a replica that skipped redo.
func TestROHaltsOnApplyError(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	reg := obs.NewRegistry()
	inst, err := NewInstance(Config{
		Name: "dn1", DC: simnet.DC1, Net: net,
		Group: "g1", Members: []paxos.Member{{Name: "dn1", DC: simnet.DC1}},
		Bootstrap: true,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	cl := newClient(t, net, "cn1", simnet.DC1)
	if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.AddRO("dn1-ro1"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Paxos().Propose(wal.Record{Type: 0xEE}); err != nil {
		t.Fatal(err)
	}
	lsn := cl.commitRows(t, "dn1", inst.Clock().Now(), userRow(1, "after", 1)).LSN
	_, err = net.Call("cn1", "dn1-ro1", WithDeadline(MultiGetReq{
		Gets: []PointGet{{Table: 1, PK: pkOf(1)}}, SnapshotTS: inst.Clock().Now(), MinLSN: lsn,
	}, time.Now().Add(5*time.Second)))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("read past an unappliable record = %v, want ErrStopped", err)
	}
	if ev := inst.EvictedROs(); len(ev) != 1 || ev[0] != "dn1-ro1" {
		t.Fatalf("evicted = %v, want [dn1-ro1]", ev)
	}
	if got := reg.Counter("dn.ro_evicted").Value(); got != 1 {
		t.Fatalf("dn.ro_evicted = %d, want 1", got)
	}
}
