package core

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

// The allocation pins of the write path. testing.AllocsPerRun counts
// every allocation in the process while the statement runs, the DN side,
// the Paxos loops and the redo log included, so these pins cover the
// whole CN → txn → DN → WAL → Paxos path a write takes. Profile them by
// layer with
//
//	make allocprof PKG=./internal/core TEST='TestWriteAllocs/txn'
//
// Each bound sits between this path's count with go1.24 on linux/amd64
// (55 and 170; 57 and 173 under -race, whose sync.Pool drops items at
// random) and the count before the per-branch, per-RPC, per-flush and
// per-waiter allocations of the write path were removed (80 and 249),
// about 20 % above the first: background work that time drives (Paxos
// heartbeats, timers, group-commit windows) lands inside the measured
// loop and grows on a loaded host. A bound may be lowered, never raised.
const (
	pointUpdateAllocBound = 66
	writeTxnAllocBound    = 204
)

// TestWriteAllocs pins (i) an auto-commit point UPDATE and (ii) one
// explicit transaction shaped like the standing benchmark's oltp_write
// (BEGIN, an index-free k update, a c update, a DELETE and re-INSERT of
// one row, COMMIT) on a 1-DC, 2-DN-group cluster. The rows of most of
// the transactions span both groups, so their commit is a two-phase
// commit; the rest commit in one phase, as in the benchmark.
func TestWriteAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins run the full write path")
	}
	c := newTestCluster(t, Config{DCs: 1, DNGroups: 2})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, "CREATE TABLE sbtest (id BIGINT, k BIGINT, c VARCHAR(120), pad VARCHAR(60), PRIMARY KEY(id)) PARTITIONS 8")
	const rows = 64
	for id := 0; id < rows; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO sbtest (id, k, c, pad) VALUES (%d, %d, 'c%031d', 'p%015d')", id, id, id, id))
	}

	// Text is built before the measured loops: the pins count the write
	// path, not fmt.
	const n = 200
	updates := make([]string, n)
	txns := make([][4]string, n)
	for i := range n {
		updates[i] = fmt.Sprintf("UPDATE sbtest SET k = k + 1 WHERE id = %d", i%rows)
		a, b, d := i%rows, (i+21)%rows, (i+42)%rows
		txns[i] = [4]string{
			fmt.Sprintf("UPDATE sbtest SET k = k + 1 WHERE id = %d", a),
			fmt.Sprintf("UPDATE sbtest SET c = 'u%031d' WHERE id = %d", i, b),
			fmt.Sprintf("DELETE FROM sbtest WHERE id = %d", d),
			fmt.Sprintf("INSERT INTO sbtest (id, k, c, pad) VALUES (%d, %d, 'n%031d', 'q%015d')", d, i, i, i),
		}
	}
	oneTxn := func(i int) {
		if err := s.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		for _, q := range txns[i%n] {
			if res, err := s.Execute(q); err != nil || res.Affected != 1 {
				t.Fatalf("%s: %v, %d rows affected", q, err, res.Affected)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every shape's plan-cache entry and every lazily grown buffer.
	for i := range 8 {
		mustExec(t, s, updates[i])
		oneTxn(i)
	}

	t.Run("point_update", func(t *testing.T) {
		i := 0
		allocs := testing.AllocsPerRun(n, func() {
			mustExec(t, s, updates[i%n])
			i++
		})
		t.Logf("%.1f allocations per auto-commit point UPDATE", allocs)
		if allocs > pointUpdateAllocBound {
			t.Fatalf("auto-commit point UPDATE allocates %.1f times, want <= %d", allocs, pointUpdateAllocBound)
		}
	})
	t.Run("txn", func(t *testing.T) {
		i := 0
		allocs := testing.AllocsPerRun(n, func() {
			oneTxn(i)
			i++
		})
		t.Logf("%.1f allocations per oltp_write-shaped transaction", allocs)
		if allocs > writeTxnAllocBound {
			t.Fatalf("oltp_write-shaped transaction allocates %.1f times, want <= %d", allocs, writeTxnAllocBound)
		}
	})
}
