package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// distinctSpanNames returns the trace's distinct span names with prefix.
func distinctSpanNames(names []string, prefix string) []string {
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out
}

// TestTraceSpanTree drives one multi-shard SELECT and one 2PC write
// through a tracing cluster and asserts the span tree shape: CN→DN
// fan-out for the read, prepare → commit-point → commit phases per
// participating DN for the write, with nesting intact.
func TestTraceSpanTree(t *testing.T) {
	c := newTestCluster(t, Config{
		Tracing: true,
		// Force TP classification so the scan fans out through
		// branch-scoped RPCs (the traced path).
		TPCostThreshold: 1e12,
	})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 100)

	// Multi-shard SELECT: every shard is scanned via one branch RPC.
	res := mustExec(t, s, "SELECT id FROM users WHERE balance >= 0")
	if res.Trace == nil {
		t.Fatal("Result.Trace nil with Tracing on")
	}
	names := res.Trace.SpanNames()
	if len(res.Trace.Find("plan")) == 0 {
		t.Fatalf("no plan span; spans = %v", names)
	}
	scans := distinctSpanNames(names, "rpc scan dn=")
	if len(scans) < 2 {
		t.Fatalf("SELECT fan-out touched %d DNs (%v), want >= 2", len(scans), names)
	}
	if s.LastTrace() != res.Trace {
		t.Fatal("LastTrace does not return the statement trace")
	}

	// 2PC write: touch both DN groups inside one explicit transaction.
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1016; i++ {
		mustExec(t, s, "INSERT INTO users (id, name, city, balance) VALUES ("+itoa(i)+", 'x', 'c', 1)")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	tr := s.LastTrace()
	if tr == nil {
		t.Fatal("no COMMIT trace")
	}
	var commit *obs.Span
	for _, sp := range tr.Find("commit") {
		if sp.Name() == "commit" {
			commit = sp
			break
		}
	}
	if commit == nil {
		t.Fatalf("no commit span; spans = %v", tr.SpanNames())
	}
	names = tr.SpanNames()
	prepares := distinctSpanNames(names, "prepare dn=")
	if len(prepares) < 2 {
		t.Fatalf("prepare spans on %d DNs (%v), want >= 2", len(prepares), names)
	}
	points := distinctSpanNames(names, "commit-point dn=")
	if len(points) != 1 {
		t.Fatalf("commit-point spans = %v, want exactly one DN", points)
	}
	// The primary branch's phase-two commit rides the commit-point RPC,
	// so plain "commit dn=" spans cover exactly the non-primary branches:
	// commit-point DNs + commit DNs together must equal the prepare DNs.
	phase2 := distinctSpanNames(names, "commit dn=")
	if len(points)+len(phase2) != len(prepares) {
		t.Fatalf("commit coverage: point=%v phase2=%v prepares=%v", points, phase2, prepares)
	}
	// Nesting: every 2PC phase hangs under the commit span.
	for _, prefix := range []string{"prepare dn=", "commit-point dn=", "commit dn="} {
		if len(commit.FindUnder(prefix)) == 0 {
			t.Fatalf("no %q span nested under commit", prefix)
		}
	}
	if d := commit.Duration(); d <= 0 {
		t.Fatalf("commit span duration = %v", d)
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestTracingOffProducesNoTrace pins the gating: without Config.Tracing
// no trace is allocated anywhere on the statement path.
func TestTracingOffProducesNoTrace(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 20)
	res := mustExec(t, s, "SELECT id FROM users WHERE id = 1")
	if res.Trace != nil || s.LastTrace() != nil {
		t.Fatal("trace allocated with Tracing off")
	}
}

// TestExplainAnalyze runs EXPLAIN and EXPLAIN ANALYZE over an aggregate
// query (the Fig. 10 shape) and asserts per-operator actuals appear.
func TestExplainAnalyze(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 200)

	res := mustExec(t, s, "EXPLAIN SELECT city, SUM(balance) FROM users GROUP BY city")
	if len(res.Columns) != 1 || res.Columns[0] != "EXPLAIN" {
		t.Fatalf("EXPLAIN columns = %v", res.Columns)
	}
	if len(res.Rows) < 2 || !strings.HasPrefix(res.Rows[0][0].AsString(), "-- class=") {
		t.Fatalf("EXPLAIN output = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if strings.Contains(row[0].AsString(), "actual") {
			t.Fatalf("plain EXPLAIN leaked actuals: %q", row[0].AsString())
		}
	}

	res = mustExec(t, s, "EXPLAIN ANALYZE SELECT city, SUM(balance) FROM users GROUP BY city")
	var sawAgg, sawScanActuals bool
	for _, row := range res.Rows {
		line := row[0].AsString()
		if strings.Contains(line, "HashAgg") && strings.Contains(line, "actual rows=") {
			sawAgg = true
		}
		if strings.Contains(line, "Scan(") && strings.Contains(line, "actual rows=200") {
			sawScanActuals = true
		}
	}
	if !sawAgg || !sawScanActuals {
		t.Fatalf("EXPLAIN ANALYZE missing actuals (agg=%v scan=%v):\n%s", sawAgg, sawScanActuals, explainText(res))
	}

	// TP plans are instrumented by the same shim: a point select, and a
	// join of a point lookup with a multi-shard scan (one user per city
	// row, 40 users in city2).
	mustExec(t, s, "CREATE TABLE cities (name VARCHAR(16), region BIGINT, PRIMARY KEY(name)) PARTITIONS 4")
	mustExec(t, s, "INSERT INTO cities (name, region) VALUES ('city0', 0), ('city1', 1), ('city2', 2), ('city3', 3), ('city4', 4)")
	for _, tc := range []struct {
		sql  string
		want []string // each: a plan line holding both fragments
	}{
		{"EXPLAIN ANALYZE SELECT name FROM users WHERE id = 42",
			[]string{"point×1|actual rows=1 ", "Project|actual rows=1 "}},
		{"EXPLAIN ANALYZE SELECT u.id, c.region FROM users u JOIN cities c ON u.city = c.name WHERE c.name = 'city2'",
			[]string{"HashJoin|actual rows=40 ", "Scan(users|actual rows=200 ", "Scan(cities, point×1|actual rows=1 "}},
	} {
		res = mustExec(t, s, tc.sql)
		text := explainText(res)
		if !strings.HasPrefix(text, "-- class=TP") || !strings.Contains(text, "exec=batch") {
			t.Fatalf("%s: want a TP plan on the batch engine:\n%s", tc.sql, text)
		}
		for _, w := range tc.want {
			node, actual, _ := strings.Cut(w, "|")
			found := false
			for _, line := range strings.Split(text, "\n") {
				if strings.Contains(line, node) && strings.Contains(line, actual) && strings.Contains(line, "time=") {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: no %q line with %q and a time:\n%s", tc.sql, node, actual, text)
			}
		}
	}
}

// explainText joins an EXPLAIN result's lines.
func explainText(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].AsString() + "\n")
	}
	return b.String()
}

// TestMetricsSnapshotAndSlowQueryLog exercises the registry wiring and
// the slow-query log end to end.
func TestMetricsSnapshotAndSlowQueryLog(t *testing.T) {
	c := newTestCluster(t, Config{
		Metrics:            true,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 50)
	mustExec(t, s, "SELECT id FROM users WHERE id = 7")
	mustExec(t, s, "SELECT id FROM users WHERE id = 7")

	snap := c.MetricsSnapshot()
	for _, want := range []string{"rpc.calls", "rpc.intra_dc", "txn.commit", "plancache.hit", "plancache.hits", "vector.pool_gets", "executor.exchange_waits"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("MetricsSnapshot missing %q:\n%s", want, snap)
		}
	}
	if c.Metrics() == nil {
		t.Fatal("Metrics() nil with Metrics on")
	}
	if c.Metrics().Counter("txn.commit").Value() == 0 {
		t.Fatal("txn.commit counter never incremented")
	}

	slow := c.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("slow-query log empty with 1ns threshold")
	}
	last := slow[len(slow)-1]
	if !strings.Contains(last.SQL, "SELECT id FROM users") || last.Duration <= 0 || last.CN == "" {
		t.Fatalf("slow entry = %+v", last)
	}
}
