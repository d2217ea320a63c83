package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/dn"
	"repro/internal/simnet"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func mustExec(t *testing.T, s *Session, query string) *Result {
	t.Helper()
	res, err := s.Execute(query)
	if err != nil {
		t.Fatalf("Execute(%q): %v", query, err)
	}
	return res
}

func seedUsers(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE users (id BIGINT, name VARCHAR(32), city VARCHAR(16), balance BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for i := 0; i < n; i += 50 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO users (id, name, city, balance) VALUES ")
		for j := i; j < i+50 && j < n; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'user%d', 'city%d', %d)", j, j, j%5, j*10)
		}
		mustExec(t, s, sb.String())
	}
}

func TestCreateInsertPointSelect(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)

	res := mustExec(t, s, "SELECT name, balance FROM users WHERE id = 42")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "user42" || res.Rows[0][1].AsInt() != 420 {
		t.Fatalf("point select = %v", res.Rows)
	}
	if res.Plan.IsAP {
		t.Fatal("point query classified AP")
	}
	// Missing key.
	res = mustExec(t, s, "SELECT name FROM users WHERE id = 424242")
	if len(res.Rows) != 0 {
		t.Fatalf("ghost row: %v", res.Rows)
	}
}

func TestCrossShardFilterScan(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 200)
	res := mustExec(t, s, "SELECT id FROM users WHERE balance >= 1900 ORDER BY id")
	if len(res.Rows) != 10 {
		t.Fatalf("filter scan = %d rows", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 190 || res.Rows[9][0].AsInt() != 199 {
		t.Fatalf("order = %v ... %v", res.Rows[0], res.Rows[9])
	}
}

func TestAggregationAcrossShards(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 200)
	res := mustExec(t, s, `
		SELECT city, COUNT(*) AS cnt, SUM(balance) AS total
		FROM users GROUP BY city ORDER BY city`)
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// city0 holds ids 0,5,10,...,195 → 40 rows, sum = 10*(0+5+...+195).
	if res.Rows[0][1].AsInt() != 40 {
		t.Fatalf("city0 count = %v", res.Rows[0])
	}
	var want int64
	for i := int64(0); i < 200; i += 5 {
		want += i * 10
	}
	if res.Rows[0][2].AsInt() != want {
		t.Fatalf("city0 sum = %v, want %d", res.Rows[0][2], want)
	}
}

func TestJoinAcrossTables(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 50)
	mustExec(t, s, `CREATE TABLE orders (oid BIGINT, uid BIGINT, amount BIGINT, PRIMARY KEY(oid)) PARTITIONS 4`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO orders (oid, uid, amount) VALUES (%d, %d, %d)", i, i%50, i))
	}
	res := mustExec(t, s, `
		SELECT u.name, SUM(o.amount) AS total
		FROM orders o JOIN users u ON o.uid = u.id
		WHERE u.city = 'city0'
		GROUP BY u.name ORDER BY total DESC LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	// user45 has orders 45 and 95: total 140 — the max among city0 users.
	if res.Rows[0][0].AsString() != "user45" || res.Rows[0][1].AsInt() != 140 {
		t.Fatalf("top = %v", res.Rows[0])
	}
}

func TestUpdateAndDelete(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 50)

	res := mustExec(t, s, "UPDATE users SET balance = balance + 1000 WHERE id = 7")
	if res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	got := mustExec(t, s, "SELECT balance FROM users WHERE id = 7")
	if got.Rows[0][0].AsInt() != 1070 {
		t.Fatalf("balance = %v", got.Rows[0])
	}
	// Non-PK where: all city1 rows.
	res = mustExec(t, s, "UPDATE users SET city = 'moved' WHERE city = 'city1'")
	if res.Affected != 10 {
		t.Fatalf("bulk update affected = %d", res.Affected)
	}
	res = mustExec(t, s, "DELETE FROM users WHERE city = 'moved'")
	if res.Affected != 10 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	left := mustExec(t, s, "SELECT COUNT(*) FROM users")
	if left.Rows[0][0].AsInt() != 40 {
		t.Fatalf("remaining = %v", left.Rows[0])
	}

	// A column-vs-column WHERE over every shard: the scan ships the bound
	// filter to the DNs, and the matched rows and the final table must
	// agree with a map model.
	mustExec(t, s, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) PARTITIONS 4")
	model := map[int64]int64{}
	var sb strings.Builder
	sb.WriteString("INSERT INTO kv (k, v) VALUES ")
	for k := int64(0); k < 40; k++ {
		model[k] = k * 7 % 23
		if k > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", k, model[k])
	}
	mustExec(t, s, sb.String())
	matched := 0
	for k, v := range model {
		if v > k {
			model[k] = v + 100
			matched++
		}
	}
	if res := mustExec(t, s, "UPDATE kv SET v = v + 100 WHERE v > k"); res.Affected != matched || matched == 0 {
		t.Fatalf("non-PK update affected = %d, model matches %d", res.Affected, matched)
	}
	rows := mustExec(t, s, "SELECT k, v FROM kv ORDER BY k").Rows
	if len(rows) != len(model) {
		t.Fatalf("%d rows, model has %d", len(rows), len(model))
	}
	for _, r := range rows {
		if want := model[r[0].AsInt()]; r[1].AsInt() != want {
			t.Fatalf("k=%d: v = %d, model has %d", r[0].AsInt(), r[1].AsInt(), want)
		}
	}
}

func TestExplicitTransactionAtomicity(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 20)

	// Cross-shard transfer inside one transaction.
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE users SET balance = balance - 50 WHERE id = 1")
	mustExec(t, s, "UPDATE users SET balance = balance + 50 WHERE id = 2")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT SUM(balance) FROM users WHERE id IN (1, 2)")
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("sum = %v", res.Rows[0])
	}

	// Rollback discards everything.
	s.BeginTxn()
	mustExec(t, s, "UPDATE users SET balance = 0 WHERE id = 1")
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, "SELECT balance FROM users WHERE id = 1")
	if res.Rows[0][0].AsInt() == 0 {
		t.Fatal("rolled-back write visible")
	}
}

func TestInsertArityAndColumnErrors(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT, v TEXT, PRIMARY KEY(id))")
	if _, err := s.Execute("INSERT INTO t (id) VALUES (1, 'x')"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := s.Execute("INSERT INTO t (id, ghost) VALUES (1, 'x')"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := s.Execute("INSERT INTO ghost VALUES (1)"); err == nil {
		t.Fatal("unknown table accepted")
	}
	// Duplicate key.
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'a')")
	if _, err := s.Execute("INSERT INTO t (id, v) VALUES (1, 'b')"); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestImplicitPrimaryKey(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, "CREATE TABLE logs (msg TEXT) PARTITIONS 4")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO logs (msg) VALUES ('m%d')", i))
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM logs")
	if res.Rows[0][0].AsInt() != 20 {
		t.Fatalf("count = %v", res.Rows[0])
	}
}

func TestGlobalSecondaryIndexMaintained(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 30)
	mustExec(t, s, "CREATE GLOBAL INDEX idx_city ON users (city)")

	// The hidden table holds one entry per base row, partitioned by city.
	gmsTable, err := c.GMS.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if len(gmsTable.Indexes) != 1 {
		t.Fatal("GSI not registered")
	}
	gi := gmsTable.Indexes[0]
	countIndexRows := func() int {
		tx, _ := c.CN(simnet.DC1).coord.Begin()
		defer tx.Abort()
		total := 0
		for shard := 0; shard < gi.Shards; shard++ {
			dnName, _ := c.GMS.DNForShard("users", shard)
			resp, err := tx.Scan(dnName, dn.ScanReq{Table: gi.PhysicalTableID(shard)})
			if err != nil {
				t.Fatal(err)
			}
			total += len(resp.Rows)
		}
		return total
	}
	if got := countIndexRows(); got != 30 {
		t.Fatalf("index rows after backfill = %d", got)
	}
	// New inserts, updates to the indexed column, and deletes all
	// maintain the hidden table.
	mustExec(t, s, "INSERT INTO users (id, name, city, balance) VALUES (100, 'new', 'cityX', 5)")
	if got := countIndexRows(); got != 31 {
		t.Fatalf("index rows after insert = %d", got)
	}
	mustExec(t, s, "UPDATE users SET city = 'cityY' WHERE id = 100")
	if got := countIndexRows(); got != 31 {
		t.Fatalf("index rows after update = %d", got)
	}
	mustExec(t, s, "DELETE FROM users WHERE id = 100")
	if got := countIndexRows(); got != 30 {
		t.Fatalf("index rows after delete = %d", got)
	}
}

func TestAPOnReplicasWithSessionConsistency(t *testing.T) {
	c := newTestCluster(t, Config{ROsPerDN: 1, TPCostThreshold: 1})
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)

	// TPCostThreshold=1 makes the aggregate AP → routed to the RO just
	// after the writes: session consistency must still show all rows.
	res := mustExec(t, s, "SELECT COUNT(*) FROM users")
	if !res.Plan.IsAP {
		t.Fatal("aggregate not classified AP")
	}
	if res.Rows[0][0].AsInt() != 100 {
		t.Fatalf("AP count = %v (stale replica?)", res.Rows[0])
	}
}

func TestColumnIndexAPPath(t *testing.T) {
	c := newTestCluster(t, Config{ROsPerDN: 1, TPCostThreshold: 1})
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
	res := mustExec(t, s, "SELECT city, SUM(balance), COUNT(*) FROM users GROUP BY city ORDER BY city")
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][2].AsInt() != 20 {
		t.Fatalf("city0 count = %v", res.Rows[0])
	}
	// The plan actually chose the column index.
	usesCol := strings.Contains(res.Plan.Explain(), "store=colindex")
	if !usesCol {
		t.Fatalf("plan did not choose the column index:\n%s", res.Plan.Explain())
	}
}

func TestTSOOracleCluster(t *testing.T) {
	c := newTestCluster(t, Config{Oracle: OracleTSO})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 30)
	res := mustExec(t, s, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("count = %v", res.Rows[0])
	}
	if c.Net.MessageCount("tso") == 0 {
		t.Fatal("TSO never consulted")
	}
}

func TestMultiDCCluster(t *testing.T) {
	c := newTestCluster(t, Config{DCs: 3, MultiDC: true, DNGroups: 3})
	s := c.CN(simnet.DC2).NewSession()
	seedUsers(t, s, 60)
	res := mustExec(t, s, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].AsInt() != 60 {
		t.Fatalf("count = %v", res.Rows[0])
	}
	// Leaders are spread across DCs.
	dcs := map[simnet.DC]bool{}
	for _, g := range []string{"dng0", "dng1", "dng2"} {
		inst, err := c.DNGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.IsLeader() {
			t.Fatalf("%s leader instance is not leading", g)
		}
		dcs[inst.DC()] = true
	}
	if len(dcs) != 3 {
		t.Fatalf("leaders in %d DCs", len(dcs))
	}
}

func TestCNLocalityAndScaleOut(t *testing.T) {
	c := newTestCluster(t, Config{DCs: 2, CNsPerDC: 1})
	if cn := c.CN(simnet.DC2); cn.DC() != simnet.DC2 {
		t.Fatalf("locality pick = %s", cn.Name())
	}
	before := len(c.CNs())
	c.AddCN(simnet.DC1)
	if len(c.CNs()) != before+1 {
		t.Fatal("AddCN did not register")
	}
}

func TestHavingAndArithmetic(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)
	res := mustExec(t, s, `
		SELECT city, AVG(balance) AS avg_bal
		FROM users GROUP BY city HAVING AVG(balance) > 480
		ORDER BY avg_bal DESC`)
	// Balances are id*10; city c has ids c, c+5, ... avg depends on c.
	// city4: ids 4,9,...,99 → avg = 10*(4+9+...+99)/20 = 515.
	if len(res.Rows) == 0 {
		t.Fatal("no groups passed HAVING")
	}
	if res.Rows[0][0].AsString() != "city4" {
		t.Fatalf("top group = %v", res.Rows[0])
	}
	for _, r := range res.Rows {
		if r[1].AsFloat() <= 480 {
			t.Fatalf("HAVING leak: %v", r)
		}
	}
}

func TestSelectStarAndLimit(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 20)
	res := mustExec(t, s, "SELECT * FROM users ORDER BY id LIMIT 5")
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("star/limit: %d rows, %d cols", len(res.Rows), len(res.Columns))
	}
	if res.Rows[4][0].AsInt() != 4 {
		t.Fatalf("order = %v", res.Rows[4])
	}
}

func TestTwoSessionsConflict(t *testing.T) {
	c := newTestCluster(t, Config{})
	s1 := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s1, 10)
	s2 := c.CN(simnet.DC1).NewSession()

	s1.BeginTxn()
	s2.BeginTxn()
	mustExec(t, s1, "UPDATE users SET balance = 1 WHERE id = 3")
	if _, err := s2.Execute("UPDATE users SET balance = 2 WHERE id = 3"); err == nil {
		t.Fatal("write-write conflict not detected")
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	s2.Rollback()
	res := mustExec(t, s1, "SELECT balance FROM users WHERE id = 3")
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("winner's write lost: %v", res.Rows[0])
	}
}

func TestAdvisorThroughCN(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)
	rec, err := c.CN(simnet.DC1).Advise([]string{
		"SELECT name FROM users WHERE city = 'city1'",
		"SELECT balance FROM users WHERE city = 'city2'",
		"SELECT COUNT(*) FROM users WHERE city = 'city0' AND balance > 100",
	}, advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chosen) == 0 {
		t.Fatal("no recommendation for a repeated city filter")
	}
	if rec.Chosen[0].Table != "users" || rec.Chosen[0].Columns[0] != "city" {
		t.Fatalf("top = %+v", rec.Chosen[0])
	}
	// The recommended DDL actually applies.
	for _, ddl := range rec.DDL() {
		mustExec(t, s, ddl)
	}
	gmsTable, _ := c.GMS.Table("users")
	if len(gmsTable.Indexes) == 0 {
		t.Fatal("recommended index not created")
	}
}

func TestHotShardPlanThroughCluster(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 50)
	// Hammer one shard with point reads to skew the load counters.
	for i := 0; i < 300; i++ {
		mustExec(t, s, "SELECT name FROM users WHERE id = 7")
	}
	actions, err := c.HotShardPlan("users", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("hot shard not detected")
	}
	if _, err := c.HotShardPlan("ghost", 2.0); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestTrafficControlThrottlesBurst(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 20)
	c.EnableTrafficControl()

	tc := c.CN(simnet.DC1).traffic
	tc.AnomalyFactor = 2 // quicker detection for the test
	tc.SetWindow(20 * time.Millisecond)

	// Calm baseline for one statement class (a slow-ish scan, the §VIII
	// "slow SQL without proper indexes").
	burstQ := func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM users WHERE balance >= %d AND name LIKE 'u%%'", i%3)
	}
	for w := 0; w < 16; w++ {
		mustExec(t, s, burstQ(w))
		time.Sleep(25 * time.Millisecond)
	}
	// Burst the same class massively from many connections; once the
	// anomaly is detected the class's concurrency is clamped and excess
	// requests fail with ErrThrottled.
	throttled := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.CN(simnet.DC1).NewSession()
			for i := 0; i < 400; i++ {
				_, err := sess.Execute(burstQ(i))
				if errors.Is(err, ErrThrottled) {
					mu.Lock()
					throttled++
					mu.Unlock()
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if throttled == 0 {
		t.Fatal("burst was never throttled")
	}
	// Other classes unaffected.
	mustExec(t, s, "SELECT COUNT(*) FROM users")
}

func TestPartitionWiseJoinCorrectness(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2, TPCostThreshold: 1})
	s := c.CN(simnet.DC1).NewSession()
	// Two tables in one table group joined on the partition key: the
	// planner marks the join partition-wise and core executes it as
	// per-shard fragments. Results must match exactly.
	mustExec(t, s, `CREATE TABLE po (id BIGINT, total BIGINT, PRIMARY KEY(id)) PARTITIONS 4 TABLEGROUP g1`)
	mustExec(t, s, `CREATE TABLE pl (id BIGINT, qty BIGINT, PRIMARY KEY(id)) PARTITIONS 4 TABLEGROUP g1`)
	for lo := 0; lo < 200; lo += 50 {
		so := "INSERT INTO po (id, total) VALUES "
		sl := "INSERT INTO pl (id, qty) VALUES "
		for i := lo; i < lo+50; i++ {
			if i > lo {
				so += ", "
				sl += ", "
			}
			so += fmt.Sprintf("(%d, %d)", i, i*2)
			sl += fmt.Sprintf("(%d, %d)", i, i%7)
		}
		mustExec(t, s, so)
		mustExec(t, s, sl)
	}
	res := mustExec(t, s, `
		SELECT COUNT(*), SUM(po.total + pl.qty)
		FROM po JOIN pl ON po.id = pl.id
		WHERE po.total >= 100`)
	// Model: rows with total=2i >= 100 → i >= 50 → 150 rows.
	var wantCount, wantSum int64
	for i := int64(50); i < 200; i++ {
		wantCount++
		wantSum += i*2 + i%7
	}
	if res.Rows[0][0].AsInt() != wantCount || res.Rows[0][1].AsInt() != wantSum {
		t.Fatalf("partition-wise join = %v, want (%d, %d)", res.Rows[0], wantCount, wantSum)
	}
	// The plan really is partition-wise.
	if !strings.Contains(res.Plan.Explain(), "partition-wise") {
		t.Fatalf("plan not partition-wise:\n%s", res.Plan.Explain())
	}
}

func TestGSIRoutedQueries(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 200)
	mustExec(t, s, "CREATE GLOBAL INDEX idx_city ON users (city)")

	// Equality on the indexed column routes through the hidden table:
	// one shard read instead of a broadcast scan.
	res := mustExec(t, s, "SELECT id, balance FROM users WHERE city = 'city2' ORDER BY id")
	if len(res.Rows) != 40 {
		t.Fatalf("gsi query rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].AsInt() != int64(i*5+2) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if !strings.Contains(res.Plan.Explain(), "gsi=idx_city") {
		t.Fatalf("plan did not use the GSI:\n%s", res.Plan.Explain())
	}

	// Residual conditions still apply on top of the index route.
	res = mustExec(t, s, "SELECT COUNT(*) FROM users WHERE city = 'city2' AND balance >= 1000")
	var want int64
	for i := int64(2); i < 200; i += 5 {
		if i*10 >= 1000 {
			want++
		}
	}
	if res.Rows[0][0].AsInt() != want {
		t.Fatalf("gsi+residual = %v, want %d", res.Rows[0], want)
	}

	// The index stays correct under updates and deletes.
	mustExec(t, s, "UPDATE users SET city = 'city2' WHERE id = 3")
	mustExec(t, s, "DELETE FROM users WHERE id = 7")
	res = mustExec(t, s, "SELECT COUNT(*) FROM users WHERE city = 'city2'")
	if res.Rows[0][0].AsInt() != 40 { // +1 moved in (id 3), -1 deleted (id 7 was city2)
		t.Fatalf("post-dml gsi count = %v", res.Rows[0])
	}
}

func TestClusteredGSIAvoidsBaseLookups(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)
	mustExec(t, s, "CREATE CLUSTERED INDEX cidx_city ON users (city)")
	res := mustExec(t, s, "SELECT id, name, balance FROM users WHERE city = 'city3' ORDER BY id")
	if len(res.Rows) != 20 {
		t.Fatalf("clustered gsi rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].AsString() != "user3" || res.Rows[0][2].AsInt() != 30 {
		t.Fatalf("row = %v", res.Rows[0])
	}
	if !strings.Contains(res.Plan.Explain(), "clustered-gsi=cidx_city") {
		t.Fatalf("plan:\n%s", res.Plan.Explain())
	}
}

func TestGSIInsideTransactionSeesOwnWrites(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 20)
	mustExec(t, s, "CREATE GLOBAL INDEX idx_city ON users (city)")
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO users (id, name, city, balance) VALUES (999, 'tx', 'cityZ', 1)")
	res := mustExec(t, s, "SELECT name FROM users WHERE city = 'cityZ'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "tx" {
		t.Fatalf("own write invisible through GSI: %v", res.Rows)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM users WHERE city = 'cityZ'")
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatal("rolled-back row visible through GSI")
	}
}

func TestClusterWithPolarFSFlushesPages(t *testing.T) {
	c := newTestCluster(t, Config{WithPolarFS: true, DNGroups: 2})
	if c.FS == nil {
		t.Fatal("PolarFS not provisioned")
	}
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)
	// The background flusher writes dirty pages to the DN volumes; the
	// volumes must grow beyond zero provisioned chunks.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		vol, err := c.FS.Volume("vol-dng0-a")
		if err != nil {
			t.Fatal(err)
		}
		if vol.Chunks() > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no pages reached PolarFS")
}

func TestMultiDCTSOCluster(t *testing.T) {
	// TSO-SI in a 3-DC Paxos deployment: the worst case the paper argues
	// against — every timestamp crosses to DC1 — must still be correct.
	c := newTestCluster(t, Config{DCs: 3, MultiDC: true, DNGroups: 3, Oracle: OracleTSO})
	s := c.CN(simnet.DC3).NewSession()
	seedUsers(t, s, 40)
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE users SET balance = balance - 5 WHERE id = 1")
	mustExec(t, s, "UPDATE users SET balance = balance + 5 WHERE id = 2")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT SUM(balance) FROM users")
	var want int64
	for i := int64(0); i < 40; i++ {
		want += i * 10
	}
	if res.Rows[0][0].AsInt() != want {
		t.Fatalf("sum = %v, want %d", res.Rows[0], want)
	}
}

func TestPartitionByNonPKEndToEnd(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2, TPCostThreshold: 1})
	s := c.CN(simnet.DC1).NewSession()
	// lineitem-style child partitioned by the FK, not the PK: the join
	// on the shared partition key becomes partition-wise even though
	// the keys are different columns of each table.
	mustExec(t, s, `CREATE TABLE ord (oid BIGINT, status BIGINT, PRIMARY KEY(oid)) PARTITIONS 4 TABLEGROUP g_ol`)
	mustExec(t, s, `CREATE TABLE item (iid BIGINT, oid BIGINT, qty BIGINT, PRIMARY KEY(iid)) PARTITIONS 4 BY (oid) TABLEGROUP g_ol`)
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ord (oid, status) VALUES (%d, %d)", i, i%3))
	}
	for i := 0; i < 180; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO item (iid, oid, qty) VALUES (%d, %d, %d)", i, i%60, i%5))
	}
	res := mustExec(t, s, `
		SELECT COUNT(*), SUM(item.qty)
		FROM ord JOIN item ON ord.oid = item.oid
		WHERE ord.status = 1`)
	var wantCount, wantSum int64
	for i := int64(0); i < 180; i++ {
		if (i%60)%3 == 1 {
			wantCount++
			wantSum += i % 5
		}
	}
	if res.Rows[0][0].AsInt() != wantCount || res.Rows[0][1].AsInt() != wantSum {
		t.Fatalf("join = %v, want (%d, %d)", res.Rows[0], wantCount, wantSum)
	}
	if !strings.Contains(res.Plan.Explain(), "partition-wise") {
		t.Fatalf("FK-aligned join not partition-wise:\n%s", res.Plan.Explain())
	}

	// Point predicates on the PK of a non-PK-partitioned table must NOT
	// use PK shard pruning (the PK no longer determines the shard) —
	// reads, updates, and deletes all have to stay correct.
	res = mustExec(t, s, "SELECT qty FROM item WHERE iid = 77")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 77%5 {
		t.Fatalf("pk read on BY-partitioned table = %v", res.Rows)
	}
	mustExec(t, s, "UPDATE item SET qty = 99 WHERE iid = 77")
	res = mustExec(t, s, "SELECT qty FROM item WHERE iid = 77")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 99 {
		t.Fatalf("pk update on BY-partitioned table = %v", res.Rows)
	}
	mustExec(t, s, "DELETE FROM item WHERE iid = 77")
	if res = mustExec(t, s, "SELECT COUNT(*) FROM item WHERE iid = 77"); res.Rows[0][0].AsInt() != 0 {
		t.Fatal("pk delete on BY-partitioned table left the row behind")
	}

	// Partition-key equality prunes to a single shard.
	res = mustExec(t, s, "SELECT COUNT(*) FROM item WHERE oid = 13")
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("partition-key count = %v", res.Rows[0])
	}
	if !strings.Contains(res.Plan.Explain(), "shards=[") {
		t.Fatalf("partition-key equality not pruned to one shard:\n%s", res.Plan.Explain())
	}
}

func TestCompositePKPointOperations(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE wh_stock (wh BIGINT, item BIGINT, qty BIGINT,
		PRIMARY KEY(wh, item)) PARTITIONS 4`)
	for w := 0; w < 5; w++ {
		for i := 0; i < 20; i++ {
			mustExec(t, s, fmt.Sprintf(
				"INSERT INTO wh_stock (wh, item, qty) VALUES (%d, %d, %d)", w, i, w*100+i))
		}
	}
	// Full-PK equality plans as a single point lookup on one shard.
	res := mustExec(t, s, "SELECT qty FROM wh_stock WHERE wh = 3 AND item = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 307 {
		t.Fatalf("composite point read = %v", res.Rows)
	}
	if ex := res.Plan.Explain(); !strings.Contains(ex, "point×1") {
		t.Fatalf("composite PK equality not planned as a point:\n%s", ex)
	}
	// Reversed literal order and extra residual conjunct still match.
	res = mustExec(t, s, "SELECT qty FROM wh_stock WHERE 7 = item AND wh = 3 AND qty > 0")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 307 {
		t.Fatalf("composite point with residual = %v", res.Rows)
	}
	// Partial PK equality must NOT be treated as a point.
	res = mustExec(t, s, "SELECT COUNT(*) FROM wh_stock WHERE wh = 3")
	if res.Rows[0][0].AsInt() != 20 {
		t.Fatalf("partial-PK count = %v", res.Rows[0])
	}
	// DML point paths.
	mustExec(t, s, "UPDATE wh_stock SET qty = 9999 WHERE wh = 2 AND item = 4")
	res = mustExec(t, s, "SELECT qty FROM wh_stock WHERE wh = 2 AND item = 4")
	if res.Rows[0][0].AsInt() != 9999 {
		t.Fatalf("composite point update = %v", res.Rows)
	}
	mustExec(t, s, "DELETE FROM wh_stock WHERE wh = 2 AND item = 4")
	if res = mustExec(t, s, "SELECT COUNT(*) FROM wh_stock"); res.Rows[0][0].AsInt() != 99 {
		t.Fatalf("count after delete = %v", res.Rows[0])
	}
	// A residual predicate that fails keeps the row untouched.
	mustExec(t, s, "UPDATE wh_stock SET qty = 0 WHERE wh = 1 AND item = 1 AND qty > 100000")
	res = mustExec(t, s, "SELECT qty FROM wh_stock WHERE wh = 1 AND item = 1")
	if res.Rows[0][0].AsInt() != 101 {
		t.Fatalf("guarded update changed the row: %v", res.Rows)
	}
}

func TestGMSReroutesAfterDNLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("waits for a real election timeout")
	}
	c := newTestCluster(t, Config{DCs: 3, MultiDC: true, DNGroups: 1})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE acct (id BIGINT, bal BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, %d)", i, i*10))
	}

	old, err := c.FailDNLeader("dng0")
	if err != nil {
		t.Fatal(err)
	}
	// The next auto-commit statement hits the dead leader, GMS
	// health-checks the group, waits out the election, repoints the
	// placement, and the statement retries transparently.
	res := mustExec(t, s, "SELECT COUNT(*) FROM acct")
	if res.Rows[0][0].AsInt() != 40 {
		t.Fatalf("post-failover count = %v", res.Rows[0])
	}
	newDN, err := c.GMS.DNForShard("acct", 0)
	if err != nil {
		t.Fatal(err)
	}
	if newDN == old {
		t.Fatalf("placement still points at the failed leader %s", old)
	}
	// Writes work against the new leader and survive a full read-back.
	mustExec(t, s, "INSERT INTO acct (id, bal) VALUES (100, 1)")
	mustExec(t, s, "UPDATE acct SET bal = 777 WHERE id = 7")
	res = mustExec(t, s, "SELECT SUM(bal) FROM acct")
	want := int64(1)
	for i := int64(0); i < 40; i++ {
		if i == 7 {
			want += 777
		} else {
			want += i * 10
		}
	}
	if res.Rows[0][0].AsInt() != want {
		t.Fatalf("post-failover sum = %v, want %d", res.Rows[0], want)
	}
	// HealDNRouting is idempotent once routing is correct.
	if healed := c.HealDNRouting(); len(healed) != 0 {
		t.Fatalf("second heal re-routed %v", healed)
	}
}

func TestSubqueries(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE dept (id BIGINT, region VARCHAR(16), PRIMARY KEY(id)) PARTITIONS 4`)
	mustExec(t, s, `CREATE TABLE emp (id BIGINT, dept BIGINT, sal BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	for d := 0; d < 6; d++ {
		region := "east"
		if d%2 == 1 {
			region = "west"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO dept (id, region) VALUES (%d, '%s')", d, region))
	}
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO emp (id, dept, sal) VALUES (%d, %d, %d)", i, i%6, 1000+i*10))
	}

	// IN subquery: employees in east-region departments (dept 0,2,4 →
	// 30 employees).
	res := mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE dept IN (SELECT id FROM dept WHERE region = 'east')`)
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("IN subquery count = %v", res.Rows[0])
	}
	// NOT IN subquery: the complement.
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE dept NOT IN (SELECT id FROM dept WHERE region = 'east')`)
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("NOT IN subquery count = %v", res.Rows[0])
	}
	// Scalar subquery: above-average salary. avg = 1000+59*10/2 = 1295;
	// sal > 1295 → ids 30..59 → 30 rows.
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE sal > (SELECT AVG(sal) FROM emp)`)
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("scalar subquery count = %v", res.Rows[0])
	}
	// Nested: IN subquery whose inner WHERE itself has a scalar subquery.
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE dept IN
		(SELECT id FROM dept WHERE id < (SELECT MAX(id) FROM dept))`)
	if res.Rows[0][0].AsInt() != 50 {
		t.Fatalf("nested subquery count = %v", res.Rows[0])
	}
	// Empty IN source is FALSE; empty NOT IN source is TRUE.
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE dept IN (SELECT id FROM dept WHERE region = 'north')`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("empty IN = %v", res.Rows[0])
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE dept NOT IN (SELECT id FROM dept WHERE region = 'north')`)
	if res.Rows[0][0].AsInt() != 60 {
		t.Fatalf("empty NOT IN = %v", res.Rows[0])
	}
	// Zero-row scalar subquery yields NULL → comparison never true.
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE sal > (SELECT MIN(sal) FROM emp WHERE sal > 99999)`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("null scalar compare = %v", res.Rows[0])
	}
	// Multi-row scalar subquery errors.
	if _, err := s.Execute(`SELECT id FROM emp WHERE sal = (SELECT sal FROM emp WHERE dept = 1)`); err == nil {
		t.Fatal("multi-row scalar subquery accepted")
	}
	// Correlated subquery (free outer reference) errors clearly.
	if _, err := s.Execute(`SELECT id FROM emp e WHERE sal > (SELECT AVG(sal) FROM emp WHERE dept = e.dept)`); err == nil {
		t.Fatal("correlated subquery accepted")
	}
	// Subqueries in DML WHERE clauses.
	mustExec(t, s, `UPDATE emp SET sal = 0 WHERE dept IN (SELECT id FROM dept WHERE region = 'west')`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE sal = 0`)
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("update-with-subquery affected = %v", res.Rows[0])
	}
	mustExec(t, s, `DELETE FROM emp WHERE sal < (SELECT MAX(sal) FROM emp) AND sal = 0`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp`)
	if res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("delete-with-subquery remaining = %v", res.Rows[0])
	}
}

func TestExistsDecorrelation(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE ord2 (oid BIGINT, pri VARCHAR(8), PRIMARY KEY(oid)) PARTITIONS 4`)
	mustExec(t, s, `CREATE TABLE li2 (lid BIGINT, oid BIGINT, late BIGINT, PRIMARY KEY(lid)) PARTITIONS 4`)
	for i := 0; i < 30; i++ {
		pri := "LOW"
		if i%3 == 0 {
			pri = "HIGH"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO ord2 (oid, pri) VALUES (%d, '%s')", i, pri))
	}
	// Orders 0..19 have line items; late ones only on even orders.
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO li2 (lid, oid, late) VALUES (%d, %d, %d)", i, i/2, (i/2)%2))
	}

	// Correlated EXISTS (single equality + residual): orders having a
	// late line item → odd oids 1..19 → 10.
	res := mustExec(t, s, `SELECT COUNT(*) FROM ord2 o WHERE EXISTS
		(SELECT * FROM li2 l WHERE l.oid = o.oid AND l.late = 1)`)
	if res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("EXISTS count = %v", res.Rows[0])
	}
	// NOT EXISTS anti form: orders with no line items at all → 20..29.
	res = mustExec(t, s, `SELECT COUNT(*) FROM ord2 o WHERE NOT EXISTS
		(SELECT * FROM li2 l WHERE l.oid = o.oid)`)
	if res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("NOT EXISTS count = %v", res.Rows[0])
	}
	// Bare (unaliased) columns decorrelate via schema lookup.
	res = mustExec(t, s, `SELECT COUNT(*) FROM ord2 WHERE EXISTS
		(SELECT * FROM li2 WHERE li2.oid = ord2.oid AND late = 1) AND pri = 'HIGH'`)
	if res.Rows[0][0].AsInt() != 3 { // odd oids {1..19} ∩ HIGH {0,3,6..} = {3,9,15}
		t.Fatalf("EXISTS+residual count = %v", res.Rows[0])
	}
	// Uncorrelated EXISTS folds to a constant.
	res = mustExec(t, s, `SELECT COUNT(*) FROM ord2 WHERE EXISTS (SELECT * FROM li2 WHERE late = 99)`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("uncorrelated empty EXISTS = %v", res.Rows[0])
	}
	// Correlated inequality is rejected, not silently wrong.
	if _, err := s.Execute(`SELECT COUNT(*) FROM ord2 o WHERE EXISTS
		(SELECT * FROM li2 l WHERE l.oid < o.oid)`); err == nil {
		t.Fatal("inequality-correlated EXISTS accepted")
	}
}
