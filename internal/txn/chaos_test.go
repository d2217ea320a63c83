package txn

// Chaos tests for the 2PC crash windows (paper §IV). Each test crashes
// the coordinator at an exact protocol point with simnet's one-shot
// crash-after-send hook and then drives the DN-side resolver, asserting
// the commit-point rule: branches commit if and only if a commit-point
// record became durable on the primary branch.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dn"
	"repro/internal/paxos"
	"repro/internal/simnet"
)

// chaosCluster is newCluster with a short in-doubt timeout (so recovery
// sweeps act within test time) and a second CN endpoint for verification
// reads after cn1 is crashed.
func chaosCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{net: simnet.New(simnet.ZeroTopology())}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dn%d", i+1)
		inst, err := dn.NewInstance(dn.Config{
			Name: name, DC: simnet.DC(i % 3), Net: c.net,
			Group:        "g-" + name,
			Members:      []paxos.Member{{Name: name, DC: simnet.DC(i % 3)}},
			Bootstrap:    true,
			InDoubtAfter: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Stop)
		if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
			t.Fatal(err)
		}
		c.dns = append(c.dns, inst)
		c.name = append(c.name, name)
	}
	c.net.Register("cn1", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	c.net.Register("cn2", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	return c
}

// seedPair commits initial rows 1 (dn1) and 2 (dn2) with balances 100/200.
func seedPair(t *testing.T, c *cluster, coord *Coordinator) {
	t.Helper()
	seed, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := put(seed, "dn1", dn.OpInsert, userRow(1, "a", 100)); err != nil {
		t.Fatal(err)
	}
	if err := put(seed, "dn2", dn.OpInsert, userRow(2, "b", 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
}

// crashedUpdate starts the canonical chaos transaction (update both rows,
// dn1 written first so it is the primary), arms the crash hook, and runs
// Commit, returning its error.
func crashedUpdate(t *testing.T, c *cluster, coord *Coordinator, match func(to string, msg any) bool) error {
	t.Helper()
	tx, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := put(tx, "dn1", dn.OpUpdate, userRow(1, "a", 111)); err != nil {
		t.Fatal(err)
	}
	if err := put(tx, "dn2", dn.OpUpdate, userRow(2, "b", 222)); err != nil {
		t.Fatal(err)
	}
	c.net.CrashAfterSend("cn1", match)
	_, err = tx.Commit()
	return err
}

// sweepUntilResolved drives explicit recovery sweeps until no branch is
// in doubt anywhere (resolution may take several sweeps when a verdict
// write is mid-flight).
func sweepUntilResolved(t *testing.T, c *cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		total := 0
		for _, inst := range c.dns {
			inst.ResolveInDoubt(nil)
			total += inst.InDoubtBranches()
		}
		if total == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("in-doubt branches never drained")
}

// readPair reads both rows through the cn2 endpoint and returns the
// balances. The reader shares the writing coordinator's oracle: HLC-SI
// only guarantees a later snapshot for causally connected observers, and
// a brand-new clock in the same millisecond can sort below an
// lc-inflated commit timestamp and legitimately see the old versions.
// (A real CN routing the session's next read has observed the commit
// timestamp the same way.) The retry loop covers resolution verdicts
// still becoming visible.
func readPair(t *testing.T, c *cluster, w *Coordinator) (int64, int64) {
	t.Helper()
	coord := NewCoordinator(c.net, "cn2", w.oracle)
	deadline := time.Now().Add(2 * time.Second)
	for {
		tx, err := coord.Begin()
		if err != nil {
			t.Fatal(err)
		}
		r1, ok1, err1 := get(tx, "dn1", 1)
		r2, ok2, err2 := get(tx, "dn2", 2)
		tx.Abort()
		if err1 == nil && err2 == nil && ok1 && ok2 {
			return r1[2].AsInt(), r2[2].AsInt()
		}
		if time.Now().After(deadline) {
			t.Fatalf("verification read failed: %v %v (ok %v %v)", err1, err2, ok1, ok2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func isCommitPoint(to string, msg any) bool {
	cr, ok := msg.(dn.CommitReq)
	return ok && cr.CommitPoint
}

func isPrepare(to string, msg any) bool {
	_, ok := msg.(dn.PrepareReq)
	return ok
}

// Coordinator dies right after the commit-point record is shipped: the
// decision is durable on dn1, dn2 never hears phase two. Recovery must
// commit dn2's branch at the recorded timestamp.
func TestCoordinatorCrashAfterCommitPointCommitsAll(t *testing.T) {
	c := chaosCluster(t, 2)
	coord := hlcCoord(c)
	seedPair(t, c, coord)

	err := crashedUpdate(t, c, coord, isCommitPoint)
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("Commit err = %v, want ErrInDoubt", err)
	}
	if n := c.dns[1].InDoubtBranches(); n != 1 {
		t.Fatalf("dn2 in-doubt branches = %d, want 1 (stuck PREPARED)", n)
	}

	time.Sleep(60 * time.Millisecond) // past InDoubtAfter
	sweepUntilResolved(t, c)

	b1, b2 := readPair(t, c, coord)
	if b1 != 111 || b2 != 222 {
		t.Fatalf("balances after recovery = %d/%d, want 111/222 (commit point implies commit)", b1, b2)
	}
	commits, _ := c.dns[1].ResolutionStats()
	if commits == 0 {
		t.Fatal("dn2 resolved no branch to commit")
	}
}

// Coordinator dies during the prepare fan-out, before any commit point
// exists. Presumed abort: recovery must roll every branch back and the
// primary's tombstone must make the verdict durable.
func TestCoordinatorCrashBeforeCommitPointAbortsAll(t *testing.T) {
	c := chaosCluster(t, 2)
	coord := hlcCoord(c)
	seedPair(t, c, coord)

	err := crashedUpdate(t, c, coord, isPrepare)
	if err == nil {
		t.Fatal("Commit succeeded despite coordinator crash in prepare")
	}
	if errors.Is(err, ErrInDoubt) {
		t.Fatalf("prepare-phase crash reported in-doubt (%v); no commit point can exist yet", err)
	}

	time.Sleep(60 * time.Millisecond)
	sweepUntilResolved(t, c)

	b1, b2 := readPair(t, c, coord)
	if b1 != 100 || b2 != 200 {
		t.Fatalf("balances after recovery = %d/%d, want 100/200 (no commit point implies abort)", b1, b2)
	}
}

// The primary is partitioned away while dn2 tries to resolve: the branch
// must stay PREPARED (guessing either way could break atomicity) until
// the partition heals, then commit from the durable commit point.
func TestPartitionedPrimaryStallsResolutionThenCommits(t *testing.T) {
	c := chaosCluster(t, 2) // dn1 in DC1, dn2 in DC2
	coord := hlcCoord(c)
	seedPair(t, c, coord)

	if err := crashedUpdate(t, c, coord, isCommitPoint); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("Commit err = %v, want ErrInDoubt", err)
	}
	c.net.Partition(simnet.DC1, simnet.DC2)

	time.Sleep(60 * time.Millisecond)
	for sweep := 0; sweep < 3; sweep++ {
		c.dns[1].ResolveInDoubt(nil)
	}
	if n := c.dns[1].InDoubtBranches(); n != 1 {
		t.Fatalf("dn2 in-doubt = %d during partition, want 1 (must not guess)", n)
	}

	c.net.Heal(simnet.DC1, simnet.DC2)
	sweepUntilResolved(t, c)

	b1, b2 := readPair(t, c, coord)
	if b1 != 111 || b2 != 222 {
		t.Fatalf("balances after heal = %d/%d, want 111/222", b1, b2)
	}
}

// A duplicated commit-point message (at-least-once delivery) must not
// double-apply: the second delivery answers from the recorded outcome.
func TestDuplicatedCommitPointIsIdempotent(t *testing.T) {
	c := chaosCluster(t, 2)
	coord := hlcCoord(c)
	seedPair(t, c, coord)

	// Duplicate every cn1 -> dn1 message.
	c.net.SetFaultSeed(7)
	c.net.SetLinkFaults("cn1", "dn1", simnet.LinkFaults{Dup: 1.0})

	tx, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := put(tx, "dn1", dn.OpUpdate, userRow(1, "a", 123)); err != nil {
		t.Fatal(err)
	}
	if err := put(tx, "dn2", dn.OpUpdate, userRow(2, "b", 234)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("Commit under duplication: %v", err)
	}
	b1, b2 := readPair(t, c, coord)
	if b1 != 123 || b2 != 234 {
		t.Fatalf("balances = %d/%d, want 123/234", b1, b2)
	}
}
