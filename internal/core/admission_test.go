package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestAdmissionStressConcurrentExecute hammers one CN with far more
// concurrent statements than the admission controller allows. Run under
// -race it checks the controller's concurrency accounting through the
// real Execute path: every statement either succeeds or sheds with the
// retryable ErrOverloaded (nothing wedges, nothing fails opaquely), and
// the admission counters reconcile with what the clients observed.
func TestAdmissionStressConcurrentExecute(t *testing.T) {
	c := newTestCluster(t, Config{
		Metrics: true,
		Admission: &admission.Config{
			MaxConcurrent: 4,
			MaxQueue:      8,
			MaxQueueWait:  5 * time.Millisecond,
			TenantSlots:   3,
		},
	})
	seed := c.CN(simnet.DC1).NewSession()
	seedUsers(t, seed, 200)

	const workers = 32
	const perWorker = 25
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.CN(simnet.DC1).NewSession()
			if w%2 == 0 {
				s.SetTenant("tenant-even")
			} else {
				s.SetTenant("tenant-odd")
			}
			for i := 0; i < perWorker; i++ {
				var err error
				if i%5 == 4 {
					// AP-shaped aggregate: exercises the AP class and the
					// memory-admission path under the same limits.
					_, err = s.Execute("SELECT city, COUNT(*) FROM users GROUP BY city")
				} else {
					_, err = s.Execute("SELECT name FROM users WHERE id = 42")
				}
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, admission.ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("worker %d: unexpected error: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workers wedged under admission limits")
	}
	if ok.Load() == 0 {
		t.Fatal("no statement was admitted")
	}
	t.Logf("admitted ok=%d shed=%d", ok.Load(), shed.Load())
	snap := c.MetricsSnapshot()
	if !strings.Contains(snap, "admission.admitted") {
		t.Fatalf("admission counters missing from snapshot:\n%s", snap)
	}
}

// TestStatementTimeoutDeadlineExceeded checks the deadline plumbing end
// to end: a session whose statement timeout has already lapsed by the
// time the branch RPC would go out surfaces obs.ErrDeadlineExceeded
// instead of executing, and a session-level negative override disables
// a cluster-wide timeout.
func TestStatementTimeoutDeadlineExceeded(t *testing.T) {
	c := newTestCluster(t, Config{StatementTimeout: time.Nanosecond})
	// Seeding needs a working session: override the absurd cluster-wide
	// timeout away for it.
	seed := c.CN(simnet.DC1).NewSession()
	seed.SetStatementTimeout(-1)
	seedUsers(t, seed, 50)

	s := c.CN(simnet.DC1).NewSession() // inherits the 1ns cluster timeout
	if _, err := s.Execute("SELECT name FROM users WHERE id = 7"); !errors.Is(err, obs.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if _, err := s.Execute("INSERT INTO users (id, name, city, balance) VALUES (9000, 'x', 'y', 1)"); !errors.Is(err, obs.ErrDeadlineExceeded) {
		t.Fatalf("DML: want ErrDeadlineExceeded, got %v", err)
	}

	// A generous per-session override beats the cluster default.
	s.SetStatementTimeout(10 * time.Second)
	if _, err := s.Execute("SELECT name FROM users WHERE id = 7"); err != nil {
		t.Fatalf("override should succeed: %v", err)
	}
}

// TestStatementTimeoutBoundsROWait: an AP read on a replica waits until
// the replica has applied the session's own writes; when the replica has
// stalled, the wait ends at the statement deadline, not never.
func TestStatementTimeoutBoundsROWait(t *testing.T) {
	c := newTestCluster(t, Config{ROsPerDN: 1, TPCostThreshold: 1})
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE ev (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for _, g := range []string{"dng0", "dng1"} {
		inst, err := c.DNGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, ro := range inst.ROs() {
			ro.SetApplyDelay(time.Minute)
		}
	}
	mustExec(t, s, `INSERT INTO ev (id, v) VALUES (1, 1), (2, 2), (3, 3), (4, 4)`)
	s.SetStatementTimeout(100 * time.Millisecond)
	start := time.Now()
	res, err := s.Execute("SELECT COUNT(*) FROM ev")
	if !errors.Is(err, obs.ErrDeadlineExceeded) {
		t.Fatalf("AP read behind a stalled replica = %v, %v; want ErrDeadlineExceeded", res, err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline-bounded read took %v", took)
	}
}

// TestAdmissionDisabledIsInert pins the defaults-off contract: with no
// Admission config and no StatementTimeout, sessions never see
// ErrOverloaded or ErrDeadlineExceeded regardless of concurrency.
func TestAdmissionDisabledIsInert(t *testing.T) {
	c := newTestCluster(t, Config{})
	seed := c.CN(simnet.DC1).NewSession()
	seedUsers(t, seed, 100)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.CN(simnet.DC1).NewSession()
			for i := 0; i < 20; i++ {
				if _, err := s.Execute("SELECT COUNT(*) FROM users"); err != nil {
					t.Errorf("defaults-off execute failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
