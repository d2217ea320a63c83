package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dn"
	"repro/internal/gms"
	"repro/internal/simnet"
)

// sentLog records the DN requests one CN sends. It hangs on simnet's
// crash-after-send hook with a predicate that never fires, which sees
// every message the CN sends, synchronous calls and asynchronous sends
// alike, before it is delivered.
type sentLog struct {
	mu   sync.Mutex
	reqs []sent
	// onSend, when set, runs for each logged request before delivery.
	onSend func(msg any)
}

type sent struct {
	to  string
	msg any
}

func logSends(c *Cluster, cn *CN) *sentLog {
	l := &sentLog{}
	c.Net.CrashAfterSend(cn.Name(), func(to string, msg any) bool {
		if env, ok := msg.(dn.Deadlined); ok {
			msg = env.Req
		}
		switch msg.(type) {
		case dn.MultiGetReq, dn.ScanReq, dn.MultiWriteReq, dn.PrepareReq, dn.CommitReq, dn.AbortReq:
			l.mu.Lock()
			l.reqs = append(l.reqs, sent{to, msg})
			onSend := l.onSend
			l.mu.Unlock()
			if onSend != nil {
				onSend(msg)
			}
		}
		return false
	})
	return l
}

func (l *sentLog) take() []sent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

// leaders returns every DN group's leader instance.
func leaders(t *testing.T, c *Cluster) []*dn.Instance {
	t.Helper()
	var out []*dn.Instance
	for g := 0; g < c.cfg.DNGroups; g++ {
		inst, err := c.DNGroup(fmt.Sprintf("dng%d", g))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, inst)
	}
	return out
}

// TestAPOnLeadersReadsOneSnapshot: an AP query with no replica to read
// reads every shard on the leaders at the query's one snapshot, opening
// no branch — not each shard in a transaction of its own.
func TestAPOnLeadersReadsOneSnapshot(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2, TPCostThreshold: 1})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 100)
	log := logSends(c, cn)
	// Each scan moves the CN's clock past its snapshot: a shard read at a
	// snapshot drawn after another shard's read left would differ.
	oracle := cn.coord.Oracle()
	log.onSend = func(msg any) {
		if scan, ok := msg.(dn.ScanReq); ok {
			oracle.Observe(scan.SnapshotTS + 1)
		}
	}

	before, err := oracle.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT city, SUM(balance), COUNT(*) FROM users GROUP BY city")
	after, err := oracle.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsAP || len(res.Rows) != 5 {
		t.Fatalf("AP=%v, %d groups", res.Plan.IsAP, len(res.Rows))
	}
	reqs := log.take()
	perDN := map[string]int{}
	for _, r := range reqs {
		scan, ok := r.msg.(dn.ScanReq)
		if !ok {
			t.Fatalf("AP query sent %T to %s", r.msg, r.to)
		}
		if scan.TxnID != 0 {
			t.Fatalf("AP scan of table %d on %s read in branch %d", scan.Table, r.to, scan.TxnID)
		}
		if snap := reqs[0].msg.(dn.ScanReq).SnapshotTS; scan.SnapshotTS != snap {
			t.Fatalf("shards read at different snapshots: %v and %v", snap, scan.SnapshotTS)
		}
		perDN[r.to]++
	}
	if len(reqs) != 4 || len(perDN) != 2 {
		t.Fatalf("AP query sent %d scans to %d DNs, want 4 shards on 2", len(reqs), len(perDN))
	}
	if snap := reqs[0].msg.(dn.ScanReq).SnapshotTS; snap < before || snap >= after {
		t.Fatalf("shards read at %v, not at the query's snapshot in [%v, %v)", snap, before, after)
	}
}

// TestAutoCommitSelectOpensNoBranch: an auto-commit SELECT touching N DNs
// sends exactly N requests, none of them an abort, and leaves neither a
// branch nor a pinned snapshot behind on any DN.
func TestAutoCommitSelectOpensNoBranch(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 100)
	log := logSends(c, cn)

	res := mustExec(t, s, "SELECT id, balance FROM users WHERE id IN (1, 2, 3, 4, 5, 6, 7, 8)")
	if res.Plan.IsAP || len(res.Rows) != 8 {
		t.Fatalf("AP=%v, %d rows", res.Plan.IsAP, len(res.Rows))
	}
	// Branches first: a branch released asynchronously is either still
	// open here or its release was already logged below.
	for _, inst := range leaders(t, c) {
		if n := inst.OpenBranches(); n != 0 {
			t.Fatalf("%s: %d branches open after an auto-commit SELECT", inst.Name(), n)
		}
		if ts, ok := inst.Engine().OldestSnapshot(); ok {
			t.Fatalf("%s: snapshot %v still registered", inst.Name(), ts)
		}
	}
	reqs := log.take()
	touched := map[string]bool{}
	for _, r := range reqs {
		if _, ok := r.msg.(dn.MultiGetReq); !ok {
			t.Fatalf("SELECT sent %T to %s", r.msg, r.to)
		}
		touched[r.to] = true
	}
	if len(touched) != 2 || len(reqs) != len(touched) {
		t.Fatalf("SELECT sent %d requests to %d DNs, want one per DN", len(reqs), len(touched))
	}
}

// TestPushedAggregateFollowsShardPlacement: a partial aggregate is pushed
// to a shard's node only when that node indexes the shard's table. After
// a shard moves to a group whose replica has no column index for it, the
// replica serves that shard's rows and the CN aggregates them — instead
// of the final merge reading raw rows as partial states (32 groups for
// 5 cities).
func TestPushedAggregateFollowsShardPlacement(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2, ROsPerDN: 1, TPCostThreshold: 1})
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)
	if err := c.WaitROConvergence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableColumnIndexes("users"); err != nil {
		t.Fatal(err)
	}
	users, err := c.GMS.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	from, err := c.GMS.DNForShard("users", 0)
	if err != nil {
		t.Fatal(err)
	}
	to := ""
	for _, inst := range leaders(t, c) {
		if inst.Name() != from {
			to = inst.Name()
		}
	}
	if err := c.MigrateShard(gms.MigrationStep{Group: users.Group, Shard: 0, From: from, To: to}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitROConvergence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT city, SUM(balance), COUNT(*) FROM users GROUP BY city ORDER BY city")
	if len(res.Rows) != 5 {
		t.Fatalf("%d groups, want 5:\n%s", len(res.Rows), res.Plan.Explain())
	}
	for i, r := range res.Rows {
		var sum int64
		for id := int64(i); id < 100; id += 5 {
			sum += id * 10
		}
		if r[1].AsInt() != sum || r[2].AsInt() != 20 {
			t.Fatalf("city%d: SUM %v COUNT %v, want %d and 20", i, r[1], r[2], sum)
		}
	}
}
