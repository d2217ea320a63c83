package dn

import (
	"errors"
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
// commits at a replica. Every commit wakes the shipper, so consecutive
// redo batches are in flight at once, each delivered on its own
// goroutine: the replica must apply them one at a time, in order — its
// applied LSN never moves backwards (an ack above what was applied lets
// the RW purge redo the replica still needs) and ends at the DLSN.
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
		_, err := net.Call("cn1", "dn1-ro1", WithDeadline(ROMultiGetReq{
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
