package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestContendedTwoPhaseCommits: two CNs run explicit transactions that
// update the same two rows, one on each DN group, in opposite orders, so
// every transaction is a two-phase commit and their primaries differ.
// Each transaction either commits or fails with a write conflict or an
// abort, and is rolled back then. Afterwards no branch is open on any DN,
// no commit waiter is parked on any Paxos node, and each session's LSN
// watermark covers every branch of every transaction it committed. Row
// values are not asserted.
func TestContendedTwoPhaseCommits(t *testing.T) {
	c := newTestCluster(t, Config{DCs: 1, CNsPerDC: 2, DNGroups: 2})
	cns := c.CNs()
	mustExec(t, cns[0].NewSession(), "CREATE TABLE hot (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4")
	tbl, err := c.GMS.Table("hot")
	if err != nil {
		t.Fatal(err)
	}
	// The first id on each DN group.
	var ids []int64
	seen := map[string]bool{}
	for id := int64(0); len(ids) < 2 && id < 64; id++ {
		dnName, err := c.GMS.DNForShard("hot", tbl.ShardOfPK(types.EncodeKey(nil, types.Int(id))))
		if err != nil {
			t.Fatal(err)
		}
		if !seen[dnName] {
			seen[dnName] = true
			ids = append(ids, id)
			mustExec(t, cns[0].NewSession(), fmt.Sprintf("INSERT INTO hot (id, v) VALUES (%d, 0)", id))
		}
	}
	if len(ids) != 2 {
		t.Fatalf("ids %v do not reach both DN groups", ids)
	}

	// Wait until each CN reads both rows: under HLC-SI a CN whose clock
	// has not yet passed the inserts' commit timestamps reads below them.
	for _, cn := range cns[:2] {
		s := cn.NewSession()
		deadline := time.Now().Add(2 * time.Second)
		for len(mustExec(t, s, "SELECT id FROM hot").Rows) != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s does not see both rows", cn.Name())
			}
			time.Sleep(time.Millisecond)
		}
	}

	const rounds = 150
	type outcome struct {
		commits   int
		failures  int
		uncovered []string
	}
	outcomes := make([]outcome, 2)
	var wg sync.WaitGroup
	for w := range outcomes {
		s := cns[w].NewSession()
		order := []int64{ids[w], ids[1-w]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outcomes[w]
			committed := map[string]wal.LSN{} // highest commit LSN per DN
			expected := func(err error) bool {
				return errors.Is(err, storage.ErrWriteConflict) || errors.Is(err, txn.ErrAborted)
			}
			for r := 0; r < rounds; r++ {
				if err := s.BeginTxn(); err != nil {
					t.Error(err)
					return
				}
				var stmtErr error
				for _, id := range order {
					var res *Result
					if res, stmtErr = s.Execute(fmt.Sprintf("UPDATE hot SET v = v + 1 WHERE id = %d", id)); stmtErr != nil {
						break
					}
					if res.Affected != 1 {
						t.Errorf("CN %d round %d: UPDATE of id %d affected %d rows", w, r, id, res.Affected)
					}
				}
				if stmtErr != nil {
					if !expected(stmtErr) {
						t.Errorf("CN %d round %d: UPDATE: %v", w, r, stmtErr)
					}
					if err := s.Rollback(); err != nil {
						t.Errorf("CN %d round %d: ROLLBACK: %v", w, r, err)
					}
					out.failures++
					continue
				}
				s.mu.Lock()
				tx := s.tx
				s.mu.Unlock()
				if err := s.Commit(); err != nil {
					if !expected(err) {
						t.Errorf("CN %d round %d: COMMIT: %v", w, r, err)
					}
					out.failures++
					continue
				}
				out.commits++
				branches := 0
				tx.EachBranch(func(b txn.Branch) {
					branches++
					if b.LSN == 0 {
						out.uncovered = append(out.uncovered, fmt.Sprintf("round %d: committed branch %s has no commit LSN", r, b.DN))
					}
					committed[b.DN] = max(committed[b.DN], b.LSN)
				})
				if branches != 2 {
					out.uncovered = append(out.uncovered, fmt.Sprintf("round %d: committed with %d branches, want 2", r, branches))
				}
			}
			for dnName, lsn := range committed {
				if got := s.minLSNFor(dnName); got < lsn {
					out.uncovered = append(out.uncovered, fmt.Sprintf("watermark on %s is %d, below committed LSN %d", dnName, got, lsn))
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for w, out := range outcomes {
		t.Logf("CN %d: %d committed, %d failed with a conflict or abort", w, out.commits, out.failures)
		for _, msg := range out.uncovered {
			t.Errorf("CN %d: %s", w, msg)
		}
		total += out.commits
	}
	if total == 0 {
		t.Fatal("no transaction committed")
	}
	for _, inst := range leaders(t, c) {
		if n := inst.Paxos().PendingWaiters(); n != 0 {
			t.Errorf("%s: %d commit waiters parked after every transaction returned", inst.Name(), n)
		}
		// A branch is released on its DN before the abort or commit
		// reply leaves, so none should be open; poll briefly all the same
		// rather than race a release still in flight.
		deadline := time.Now().Add(2 * time.Second)
		for inst.OpenBranches() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := inst.OpenBranches(); n != 0 {
			t.Errorf("%s: %d branches open after every transaction finished", inst.Name(), n)
		}
	}
}
