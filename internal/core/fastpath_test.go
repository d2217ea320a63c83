package core

// Tests for the CN fast path: per-DN batched RPC fan-out (multi-point
// reads, batched DML writes) and the fingerprinted plan cache.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// TestBatchedPointReadRPCBudget pins the fast path's RPC budget: a
// multi-point read spanning several DN groups pays exactly one MultiGet
// per touched DN — for a SELECT by primary key (auto-commit and in a
// transaction) and for the base-row fetch behind a non-clustered global
// index.
func TestBatchedPointReadRPCBudget(t *testing.T) {
	const keys = 24
	groups := []string{"dng0", "dng1", "dng2"}
	inList := func() string {
		ids := make([]string, keys)
		for i := range ids {
			ids[i] = fmt.Sprintf("%d", i)
		}
		return strings.Join(ids, ", ")
	}()

	c := newTestCluster(t, Config{DNGroups: 3})
	multiGets := func() (n uint64) {
		for _, g := range groups {
			inst, err := c.DNGroup(g)
			if err != nil {
				t.Fatal(err)
			}
			_, m, _, _ := inst.RPCStats()
			n += m
		}
		return n
	}
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 6`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO kv (id, v) VALUES ")
	for i := 0; i < keys; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%2)
	}
	mustExec(t, s, sb.String())

	// The exact set of DNs a read of the given keys must touch, from the
	// placement.
	tbl, err := c.GMS.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	touched := func(pick func(id int64) bool) int {
		dns := map[string]bool{}
		for i := int64(0); i < keys; i++ {
			if !pick(i) {
				continue
			}
			name, err := c.GMS.DNForShard("kv", tbl.ShardOfPK(types.EncodeKey(nil, types.Int(i))))
			if err != nil {
				t.Fatal(err)
			}
			dns[name] = true
		}
		if len(dns) < 2 {
			t.Fatalf("test needs a multi-DN read, placement uses %d DN(s)", len(dns))
		}
		return len(dns)
	}
	// budget runs one statement and checks rows returned and RPCs paid.
	budget := func(name, query string, rows, dns int) {
		t.Helper()
		m0 := multiGets()
		res := mustExec(t, s, query)
		if len(res.Rows) != rows {
			t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), rows)
		}
		if got := multiGets() - m0; got != uint64(dns) {
			t.Fatalf("%s: %d MultiGet RPCs for %d touched DNs", name, got, dns)
		}
	}

	all := touched(func(int64) bool { return true })
	// Auto-commit statement: a snapshot read per DN, no branch.
	budget("auto-commit", "SELECT v FROM kv WHERE id IN ("+inList+")", keys, all)
	// Same budget inside an explicit transaction.
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	budget("in-txn", "SELECT v FROM kv WHERE id IN ("+inList+")", keys, all)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Non-clustered global index: a lookup reads the index shard once,
	// then fetches the base rows — half the table, spread over the DNs —
	// batched per DN.
	mustExec(t, s, `CREATE GLOBAL INDEX idx_v ON kv (v)`)
	const q = "SELECT id FROM kv WHERE v = 1"
	if plan := mustExec(t, s, "EXPLAIN "+q); !strings.Contains(fmt.Sprint(plan.Rows), "gsi=idx_v") {
		t.Fatalf("lookup does not route through the index:\n%v", plan.Rows)
	}
	budget("gsi base rows", q, keys/2, touched(func(id int64) bool { return id%2 == 1 }))
}

// TestFastPathEquivalenceUnderConcurrency drives many concurrent
// sessions through the batched paths (multi-row INSERT, IN-list
// UPDATE/DELETE/SELECT, GSI maintenance, explicit cross-shard
// transactions), each over its own key range, and checks the final
// database state against a map model of the same per-worker script. Run
// under -race via `make test-race`.
func TestFastPathEquivalenceUnderConcurrency(t *testing.T) {
	const workers, span = 4, 60
	type acct struct{ grp, val int64 }
	model := map[int64]acct{}

	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE acct (id BIGINT, grp BIGINT, val BIGINT, PRIMARY KEY(id)) PARTITIONS 8`)
	mustExec(t, s, `CREATE GLOBAL INDEX idx_grp ON acct (grp)`)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		base := w * span
		// The script, applied to the model...
		for i := base; i < base+span; i++ {
			model[int64(i)] = acct{grp: int64(i % 7), val: int64(i * 3)}
		}
		var ids []string
		for i := base; i < base+span; i += 6 {
			ids = append(ids, fmt.Sprintf("%d", i))
			a := model[int64(i)]
			model[int64(i)] = acct{grp: a.grp + 7, val: a.val + 1000}
		}
		deleted := [3]int{base + 1, base + 8, base + 15}
		for _, id := range deleted {
			delete(model, int64(id))
		}
		// ... and to the database.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := c.CN(simnet.DC1).NewSession()
			// Multi-row inserts (batched write fan-out + GSI rows).
			for lo := base; lo < base+span; lo += 20 {
				var sb strings.Builder
				sb.WriteString("INSERT INTO acct (id, grp, val) VALUES ")
				for i := lo; i < lo+20; i++ {
					if i > lo {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%7, i*3)
				}
				if _, err := sess.Execute(sb.String()); err != nil {
					t.Error(err)
					return
				}
			}
			// Explicit cross-shard transaction over an IN list: batched
			// point reads + batched updates that move GSI entries.
			list := strings.Join(ids, ", ")
			if err := sess.BeginTxn(); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.Execute(
				"SELECT val FROM acct WHERE id IN (" + list + ")"); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.Execute(
				"UPDATE acct SET val = val + 1000, grp = grp + 7 WHERE id IN (" + list + ")"); err != nil {
				t.Error(err)
				return
			}
			if err := sess.Commit(); err != nil {
				t.Error(err)
				return
			}
			// Auto-commit batched delete.
			if _, err := sess.Execute(fmt.Sprintf(
				"DELETE FROM acct WHERE id IN (%d, %d, %d)", deleted[0], deleted[1], deleted[2])); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	res := mustExec(t, s, "SELECT id, grp, val FROM acct ORDER BY id")
	if len(res.Rows) != len(model) {
		t.Fatalf("%d rows, model has %d", len(res.Rows), len(model))
	}
	grp9 := 0
	for _, r := range res.Rows {
		got := acct{grp: r[1].AsInt(), val: r[2].AsInt()}
		if want, ok := model[r[0].AsInt()]; !ok || got != want {
			t.Fatalf("row %d = %+v, model has %+v (present=%v)", r[0].AsInt(), got, want, ok)
		}
		if got.grp == 9 {
			grp9++
		}
	}
	// The GSI stayed consistent with the base table (index route).
	if gsi := mustExec(t, s, "SELECT COUNT(*) FROM acct WHERE grp = 9"); gsi.Rows[0][0].AsInt() != int64(grp9) {
		t.Fatalf("GSI route counts %d rows with grp = 9, base table has %d", gsi.Rows[0][0].AsInt(), grp9)
	}
}

// TestPlanCacheRebindAndHitRate runs the sysbench-style point loop with
// varying literals: one fingerprint, >90% hit rate, and every execution
// must return the row for ITS literal (parameter re-binding plus
// re-pruning of the value-dependent routing).
func TestPlanCacheRebindAndHitRate(t *testing.T) {
	c := newTestCluster(t, Config{})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 100)

	h0, m0 := cn.PlanCacheStats()
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			res := mustExec(t, s, fmt.Sprintf("SELECT name FROM users WHERE id = %d", i))
			if len(res.Rows) != 1 || res.Rows[0][0].AsString() != fmt.Sprintf("user%d", i) {
				t.Fatalf("id=%d returned %v (stale parameter binding?)", i, res.Rows)
			}
		}
	}
	hits, misses := cn.PlanCacheStats()
	hits, misses = hits-h0, misses-m0
	if misses != 1 || hits != 199 {
		t.Fatalf("point loop: hits=%d misses=%d, want 199/1", hits, misses)
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("hit rate = %.3f, want > 0.9", rate)
	}

	// IN lists share one fingerprint; shard routing must be recomputed
	// per parameter set (different values → different shards), and the
	// IN-dedup semantics must survive re-instantiation.
	res := mustExec(t, s, "SELECT id FROM users WHERE id IN (1, 2, 3) ORDER BY id")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 1 || res.Rows[2][0].AsInt() != 3 {
		t.Fatalf("IN(1,2,3) = %v", res.Rows)
	}
	h1, _ := cn.PlanCacheStats()
	res = mustExec(t, s, "SELECT id FROM users WHERE id IN (97, 4, 98) ORDER BY id")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 4 || res.Rows[2][0].AsInt() != 98 {
		t.Fatalf("IN(97,4,98) = %v (cached routing not re-pruned?)", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM users WHERE id IN (5, 5, 5) ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("IN(5,5,5) = %v", res.Rows)
	}
	h2, _ := cn.PlanCacheStats()
	if h2-h1 != 2 {
		t.Fatalf("IN variants hit %d times, want 2 (shared fingerprint)", h2-h1)
	}
}

// TestPlanCacheInvalidationOnDDL: any DDL bumps the schema epoch, so a
// cached plan is dropped rather than executed stale — after CREATE
// GLOBAL INDEX the same statement must replan onto the index, and after
// an unrelated CREATE TABLE it must still miss once and re-cache.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	c := newTestCluster(t, Config{})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 50)

	const q = "SELECT id FROM users WHERE city = 'city2' ORDER BY id"
	first := mustExec(t, s, q)
	if strings.Contains(first.Plan.Explain(), "gsi=") {
		t.Fatalf("gsi plan before any index exists:\n%s", first.Plan.Explain())
	}
	h0, _ := cn.PlanCacheStats()
	second := mustExec(t, s, q)
	if h1, _ := cn.PlanCacheStats(); h1 != h0+1 {
		t.Fatal("repeated statement missed the cache")
	}
	if len(second.Rows) != 10 {
		t.Fatalf("city2 rows = %d", len(second.Rows))
	}

	// The GSI changes the right plan for the cached statement. A stale
	// skeleton would keep broadcasting the scan (or, worse, read physical
	// tables that no longer match the catalog).
	mustExec(t, s, "CREATE GLOBAL INDEX idx_city ON users (city)")
	third := mustExec(t, s, q)
	if !strings.Contains(third.Plan.Explain(), "gsi=idx_city") {
		t.Fatalf("post-DDL execution reused the stale cached plan:\n%s", third.Plan.Explain())
	}
	if len(third.Rows) != len(second.Rows) {
		t.Fatalf("post-DDL rows = %d, want %d", len(third.Rows), len(second.Rows))
	}
	for i := range third.Rows {
		if third.Rows[i][0].AsInt() != second.Rows[i][0].AsInt() {
			t.Fatalf("row %d: %v != %v", i, third.Rows[i], second.Rows[i])
		}
	}

	// Unrelated DDL also moves the epoch (correctness over cleverness):
	// exactly one miss, then the statement caches again.
	_, m0 := cn.PlanCacheStats()
	mustExec(t, s, "CREATE TABLE unrelated (id BIGINT, PRIMARY KEY(id))")
	mustExec(t, s, q)
	h2, m1 := cn.PlanCacheStats()
	if m1 != m0+1 {
		t.Fatalf("CREATE TABLE did not invalidate: misses %d -> %d", m0, m1)
	}
	mustExec(t, s, q)
	if h3, _ := cn.PlanCacheStats(); h3 != h2+1 {
		t.Fatal("statement not re-cached after invalidation")
	}
}

// TestColumnIndexCacheInvalidation covers the per-CN column-index
// answer cache: a CN that already answered "no column index" for a
// table must see EnableColumnIndexes through the epoch bump — both the
// cached answer and any cached plan for the statement are stale.
func TestColumnIndexCacheInvalidation(t *testing.T) {
	c := newTestCluster(t, Config{ROsPerDN: 1, TPCostThreshold: 1})
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 60)

	const q = "SELECT city, COUNT(*) FROM users GROUP BY city ORDER BY city"
	res := mustExec(t, s, q)
	if strings.Contains(res.Plan.Explain(), "store=colindex") {
		t.Fatalf("column index chosen before enabling:\n%s", res.Plan.Explain())
	}
	if err := c.WaitROConvergence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableColumnIndexes("users"); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, q)
	if !strings.Contains(res.Plan.Explain(), "store=colindex") {
		t.Fatalf("stale cached answer after EnableColumnIndexes:\n%s", res.Plan.Explain())
	}
	if len(res.Rows) != 5 || res.Rows[0][1].AsInt() != 12 {
		t.Fatalf("column-index groups = %v", res.Rows)
	}
}

// TestDMLDuplicateINKeys: duplicate IN-list entries must match a row
// once for UPDATE/DELETE (MySQL semantics) — without dedup the second
// staged delete of the same key fails at the DN.
func TestDMLDuplicateINKeys(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE dup (id BIGINT, v BIGINT, PRIMARY KEY (id)) PARTITIONS 4`)
	mustExec(t, s, `CREATE GLOBAL INDEX idx_dupv ON dup (v)`)
	mustExec(t, s, `INSERT INTO dup (id, v) VALUES (1, 10), (2, 20), (3, 30)`)

	if res := mustExec(t, s, `UPDATE dup SET v = v + 1 WHERE id IN (2, 2, 2)`); res.Affected != 1 {
		t.Fatalf("update affected = %d, want 1", res.Affected)
	}
	if res := mustExec(t, s, `SELECT v FROM dup WHERE id = 2`); res.Rows[0][0].AsInt() != 21 {
		t.Fatalf("duplicate-key update applied more than once: v = %v", res.Rows[0][0])
	}

	if res := mustExec(t, s, `DELETE FROM dup WHERE id IN (3, 3, 3)`); res.Affected != 1 {
		t.Fatalf("delete affected = %d, want 1", res.Affected)
	}
	if res := mustExec(t, s, `SELECT id FROM dup ORDER BY id`); len(res.Rows) != 2 {
		t.Fatalf("rows after delete = %d, want 2", len(res.Rows))
	}
	// The GSI must have followed: old entries gone, updated one present.
	if res := mustExec(t, s, `SELECT id FROM dup WHERE v = 21`); len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("GSI lookup after dup-key update = %v", res.Rows)
	}
	if res := mustExec(t, s, `SELECT id FROM dup WHERE v = 30`); len(res.Rows) != 0 {
		t.Fatalf("GSI entry for deleted row survived: %v", res.Rows)
	}
}
