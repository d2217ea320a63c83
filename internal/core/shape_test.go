package core

// Tests for the shape path: a text SELECT whose shape has a plan-cache
// binding runs from one lexer pass, without an AST.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/optimizer"
	"repro/internal/simnet"
	"repro/internal/sql"
	"repro/internal/types"
)

// seedShapeTable creates sh with negative and positive keys, floats,
// quoted strings and NULLs: enough for every literal form the shape
// pass lifts.
func seedShapeTable(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE sh (id BIGINT, k BIGINT, f DOUBLE, s VARCHAR(32), b BOOL, PRIMARY KEY(id)) PARTITIONS 4`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO sh (id, k, f, s, b) VALUES ")
	for id := -12; id <= 24; id++ {
		if id > -12 {
			sb.WriteString(", ")
		}
		str := fmt.Sprintf("'v%d'", id)
		switch id {
		case 3:
			str = `'it''s'`
		case 4:
			str = `'a\'b'`
		case 5:
			str = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %d, %g, %s, %v)", id, id*3, float64(id)/2, str, id%2 == 0)
	}
	mustExec(t, s, sb.String())
}

// outcome is what the differential test compares: the rows (as a
// sorted multiset, since unordered scans interleave shards), the column
// names, the plan's EXPLAIN text, or the error.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	explain := ""
	if res.Plan != nil {
		explain = res.Plan.Explain()
	}
	return fmt.Sprintf("columns %v\nrows %v\nplan:\n%s", res.Columns, rows, explain)
}

// awaitRows waits until s counts n rows in table. A snapshot taken on a
// second CN right after a load through the first may sit below the
// load's commits, whose timestamps its clock has not yet seen; a test
// that compares the two CNs waits for the second to see every row.
func awaitRows(t *testing.T, s *Session, table string, n int64) {
	t.Helper()
	for start := time.Now(); ; {
		res, err := s.Execute("SELECT COUNT(*) FROM " + table)
		if err == nil && res.Rows[0][0].AsInt() == n {
			return
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("the second CN does not see the loaded rows of %s: %v, %v", table, res, err)
		}
	}
}

// TestShapeDifferential runs each statement pair on one session (the
// first primes the cache, the second has new literals and, when
// cacheable, is served by its shape) and compares each outcome with a
// cold parse-path execution on a second CN whose plan cache is emptied
// before every statement.
func TestShapeDifferential(t *testing.T) {
	c := newTestCluster(t, Config{CNsPerDC: 2})
	cns := c.CNs()
	cn, ref := cns[0], cns[1]
	s, rs := cn.NewSession(), ref.NewSession()
	seedShapeTable(t, s)
	awaitRows(t, rs, "sh", 37)

	cases := []struct {
		miss, hit string
		cached    bool // the hit statement's shape must have a binding
	}{
		{"SELECT id, k FROM sh WHERE id = -5", "SELECT id, k FROM sh WHERE id = -7", true},
		{"SELECT id, k FROM sh WHERE id = - 5", "SELECT id, k FROM sh WHERE id = - 9", true},
		{"SELECT id FROM sh WHERE f = -5.0", "SELECT id FROM sh WHERE f = -2.5", true},
		{"SELECT id FROM sh WHERE id = -'5'", "SELECT id FROM sh WHERE id = -'6'", true},
		{"SELECT id FROM sh WHERE id = - -4", "SELECT id FROM sh WHERE id = - -8", true},
		{"SELECT id FROM sh WHERE k - 5 = 10", "SELECT id FROM sh WHERE k - 6 = 12", true},
		{"SELECT id FROM sh WHERE id > 0 ORDER BY id LIMIT 5", "SELECT id FROM sh WHERE id > 3 ORDER BY id LIMIT 5", true},
		{"SELECT id FROM sh WHERE id > 0 ORDER BY id LIMIT 6", "SELECT id FROM sh WHERE id > 2 ORDER BY id LIMIT 6", true},
		{"SELECT id FROM sh WHERE id IN (1)", "SELECT id FROM sh WHERE id IN (22)", true},
		{"SELECT id FROM sh WHERE id IN (1, 2)", "SELECT id FROM sh WHERE id IN (7, 3)", true},
		{"SELECT id FROM sh WHERE id IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)", "SELECT id FROM sh WHERE id IN (11, 12, 13, 14, 15, 16, 17, 18, 19, 1)", true},
		{"SELECT id FROM sh WHERE f < 1e1", "SELECT id FROM sh WHERE f < 2E0", true},
		{"SELECT id FROM sh WHERE f = .5", "SELECT id FROM sh WHERE f = 1.5", true},
		{`SELECT id FROM sh WHERE s = 'it''s'`, `SELECT id FROM sh WHERE s = 'a\'b'`, true},
		{"SELECT id FROM sh -- first\nWHERE id = 3", "SELECT id FROM sh -- second\nWHERE id = 4", true},
		{"SELECT id FROM sh WHERE id = 3", "sElEcT id FrOm sh wHeRe id = 6", true},
		{"SELECT id FROM sh WHERE id = 3;", "SELECT id FROM sh WHERE id = 8;", true},
		{"SELECT id FROM sh WHERE b = TRUE AND id > 2", "SELECT id FROM sh WHERE b = TRUE AND id > 9", true},
		{"SELECT id FROM sh WHERE s IS NULL AND id > 1", "SELECT id FROM sh WHERE s IS NULL AND id > 6", true},
		{"SELECT id FROM sh WHERE s = NULL OR id = 1", "SELECT id FROM sh WHERE s = NULL OR id = 2", true},
		{"SELECT k, COUNT(*) FROM sh WHERE id BETWEEN 1 AND 9 GROUP BY k HAVING COUNT(*) > 0 ORDER BY k",
			"SELECT k, COUNT(*) FROM sh WHERE id BETWEEN 3 AND 14 GROUP BY k HAVING COUNT(*) > 0 ORDER BY k", true},
		{"SELECT id FROM sh WHERE id IN (SELECT id FROM sh WHERE k = 3)", "SELECT id FROM sh WHERE id IN (SELECT id FROM sh WHERE k = 6)", false},
		{"EXPLAIN SELECT id FROM sh WHERE id = 3", "EXPLAIN SELECT id FROM sh WHERE id = 4", false},
		{"SELECT id FROM sh WHERE id = 99999999999999999999", "SELECT id FROM sh WHERE id = 99999999999999999998", false},
	}
	reference := func(q string) string {
		ref.planCache = optimizer.NewPlanCache(0)
		stmt, err := sql.Parse(q)
		if err != nil {
			return outcome(nil, err)
		}
		return outcome(rs.ExecuteStmt(stmt))
	}
	for _, tc := range cases {
		if got, want := outcome(s.Execute(tc.miss)), reference(tc.miss); got != want {
			t.Errorf("%q (priming):\n%s\nwant (cold parse path):\n%s", tc.miss, got, want)
		}
		var shape sql.Shape
		bound := shape.Of(tc.hit) && cn.planCache.LookupShape(shape.Key, c.planEpoch(), shape.Lits) != nil
		if bound != tc.cached {
			t.Errorf("%q: shape bound = %v, want %v", tc.hit, bound, tc.cached)
		}
		if got, want := outcome(s.Execute(tc.hit)), reference(tc.hit); got != want {
			t.Errorf("%q (new literals):\n%s\nwant (cold parse path):\n%s", tc.hit, got, want)
		}
	}
}

// TestShapeHitColumnNames: an output column named after an expression
// that holds a literal takes its name from the hit's literals, not the
// literals of the statement the cached plan was built from. Aliases and
// plain column names stay as written.
func TestShapeHitColumnNames(t *testing.T) {
	c := newTestCluster(t, Config{CNsPerDC: 2})
	cns := c.CNs()
	cn, ref := cns[0], cns[1]
	s, rs := cn.NewSession(), ref.NewSession()
	seedUsers(t, s, 20)
	awaitRows(t, rs, "users", 20)
	pairs := [][2]string{
		{"SELECT name, balance * 2 FROM users WHERE id = 1", "SELECT name, balance * 3 FROM users WHERE id = 2"},
		{"SELECT balance * 2 AS b, name FROM users WHERE id = 1", "SELECT balance * 3 AS b, name FROM users WHERE id = 2"},
		{"SELECT 'x', id FROM users WHERE id = 1", "SELECT 'y', id FROM users WHERE id = 2"},
		{"SELECT SUM(balance * 2) FROM users WHERE id > 1", "SELECT SUM(balance * 3) FROM users WHERE id > 2"},
		{"SELECT COUNT(*) + 1, MAX(balance) FROM users WHERE id > 1", "SELECT COUNT(*) + 2, MAX(balance) FROM users WHERE id > 2"},
		{"SELECT city, SUM(balance) - 5 AS s FROM users WHERE id > 1 GROUP BY city ORDER BY city",
			"SELECT city, SUM(balance) - 6 AS s FROM users WHERE id > 2 GROUP BY city ORDER BY city"},
		{"SELECT city, SUM(balance * 2) FROM users WHERE id > 1 GROUP BY city HAVING COUNT(*) > 1 ORDER BY city",
			"SELECT city, SUM(balance * 3) FROM users WHERE id > 2 GROUP BY city HAVING COUNT(*) > 2 ORDER BY city"},
		{"SELECT SUM(balance + 1) + 1 FROM users WHERE id > 1", "SELECT SUM(balance + 2) + 2 FROM users WHERE id > 2"},
	}
	cold := func(q string) string {
		ref.planCache = optimizer.NewPlanCache(0)
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return outcome(rs.ExecuteStmt(stmt))
	}
	for _, p := range pairs {
		mustExec(t, s, p[0])
		var shape sql.Shape
		if !shape.Of(p[1]) || cn.planCache.LookupShape(shape.Key, c.planEpoch(), shape.Lits) == nil {
			t.Fatalf("%q: no plan-cache binding after %q", p[1], p[0])
		}
		if got, want := outcome(s.Execute(p[1])), cold(p[1]); got != want {
			t.Errorf("%q after %q:\n%s\nwant (cold parse path):\n%s", p[1], p[0], got, want)
		}
	}
}

// TestShapeLiteralsThatPrintAlike: when two literals of a statement
// print alike, the planner may compute their expressions once, so the
// plan holds one of the two. Such a plan is not cached (a hit would
// compute with the wrong literal); the statement plans every time, and
// each result equals a cold parse on a second CN.
func TestShapeLiteralsThatPrintAlike(t *testing.T) {
	c := newTestCluster(t, Config{CNsPerDC: 2})
	cns := c.CNs()
	cn, ref := cns[0], cns[1]
	s, rs := cn.NewSession(), ref.NewSession()
	seedUsers(t, s, 20)
	awaitRows(t, rs, "users", 20)
	pairs := [][2]string{
		{"SELECT SUM(balance * 2), SUM(balance * 2) FROM users WHERE id > 1",
			"SELECT SUM(balance * 2), SUM(balance * 3) FROM users WHERE id > 1"},
		{"SELECT balance * 2, COUNT(*) FROM users WHERE id > 1 GROUP BY balance * 2",
			"SELECT balance * 3, COUNT(*) FROM users WHERE id > 1 GROUP BY balance * 2"},
		{"SELECT balance * 2, COUNT(*) FROM users WHERE id > 1 GROUP BY balance * 2",
			"SELECT balance * 3, COUNT(*) FROM users WHERE id > 2 GROUP BY balance * 3"},
	}
	cold := func(q string) string {
		ref.planCache = optimizer.NewPlanCache(0)
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return outcome(rs.ExecuteStmt(stmt))
	}
	for _, p := range pairs {
		if got, want := outcome(s.Execute(p[0])), cold(p[0]); got != want {
			t.Errorf("%q:\n%s\nwant (cold parse path):\n%s", p[0], got, want)
		}
		var shape sql.Shape
		if shape.Of(p[1]) && cn.planCache.LookupShape(shape.Key, c.planEpoch(), shape.Lits) != nil {
			t.Errorf("%q: a plan that holds one of two alike literals was cached", p[0])
		}
		if got, want := outcome(s.Execute(p[1])), cold(p[1]); got != want {
			t.Errorf("%q after %q:\n%s\nwant (cold parse path):\n%s", p[1], p[0], got, want)
		}
	}
}

// TestShapeConcurrentSessions: sessions on one CN share shape bindings;
// each must still get the row for its own literal.
func TestShapeConcurrentSessions(t *testing.T) {
	c := newTestCluster(t, Config{})
	cn := c.CN(simnet.DC1)
	seedUsers(t, cn.NewSession(), 200)
	const sessions, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := cn.NewSession()
			for r := 0; r < rounds; r++ {
				id := (w*rounds + r) % 200
				res, err := s.Execute(fmt.Sprintf("SELECT name, balance FROM users WHERE id = %d", id))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].AsString() != fmt.Sprintf("user%d", id) ||
					res.Rows[0][1].AsInt() != int64(id*10) {
					errs <- fmt.Errorf("session %d: id=%d returned %v", w, id, res.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, _ := cn.PlanCacheStats(); hits < sessions*rounds/2 {
		t.Fatalf("%d plan-cache hits over %d statements of one shape", hits, sessions*rounds)
	}
}

// TestShapeHitAllocs bounds the allocations of a repeated point select
// (a shape hit builds no AST and renders no fingerprint), and checks that
// the hit itself, the shape pass plus the plan-cache lookup, allocates
// the same whatever the length of an IN list: a copy-on-write instance
// routes every key through one arena.
func TestShapeHitAllocs(t *testing.T) {
	c := newTestCluster(t, Config{})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 50)
	queries := make([]string, 50)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT name FROM users WHERE id = %d", i)
	}
	mustExec(t, s, queries[0])
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Execute(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocations per repeated point select", allocs)
	if allocs > shapeHitAllocBound {
		t.Fatalf("repeated point select allocates %.1f times, want <= %d", allocs, shapeHitAllocBound)
	}

	hit := map[int]float64{}
	for _, n := range []int{1, 10, 20} {
		for i := range queries {
			keys := make([]string, n)
			for k := range keys {
				keys[k] = fmt.Sprint((i + 7*k) % 60) // some keys have no row
			}
			queries[i] = "SELECT id, name FROM users WHERE id IN (" + strings.Join(keys, ", ") + ")"
		}
		mustExec(t, s, queries[0]) // parses, plans and binds the shape
		var sh sql.Shape
		hit[n] = testing.AllocsPerRun(200, func() {
			if !sh.Of(queries[i%len(queries)]) || cn.planCache.LookupShape(sh.Key, c.planEpoch(), sh.Lits) == nil {
				t.Fatal("IN-list shape missed the plan cache")
			}
			i++
		})
		t.Logf("IN-%d: %.1f allocations per plan-cache hit", n, hit[n])
	}
	if hit[20] > hit[1]+2 {
		t.Fatalf("a plan-cache hit allocates %.1f times for IN-1 and %.1f for IN-20: it grows with the list", hit[1], hit[20])
	}
}

// shapeHitAllocBound sits between this path's count (37 with go1.24 on
// linux/amd64, 38 to 40 under -race, whose sync.Pool drops items at
// random: the copy-on-write hit, one-arena routing and sized fan-out)
// and the count before them (46: a deep copy of the plan per hit). It
// may be lowered, never raised.
const shapeHitAllocBound = 43

// TestShapeSharedSkeletonRace: eight sessions run one IN-list shape with
// different keys on one CN while a prepared statement with the same
// fingerprint runs beside them; after each DDL that another session
// runs, unless a text session re-planned first, it re-plans (re-binding
// the column references of its own AST) and stores a new skeleton.
// Every instance shares the skeleton's unparameterized nodes with the
// others, so under -race this checks that nothing writes them. Each
// result must equal a cold parse of the statement on a second CN.
func TestShapeSharedSkeletonRace(t *testing.T) {
	c := newTestCluster(t, Config{CNsPerDC: 2})
	cns := c.CNs()
	cn, ref := cns[0], cns[1]
	seedUsers(t, cn.NewSession(), 200)
	const sessions, rounds, ddls = 8, 40, 4
	text := func(a, b, d int) string {
		return fmt.Sprintf("SELECT id, name, balance FROM users WHERE id IN (%d, %d, %d)", a, b, d)
	}
	keys := func(w, r int) (int, int, int) {
		a, b := (w*37+r*11)%220, (w*13+r*7)%220 // ids from 200 up have no row
		if r%5 == 0 {
			return a, b, a
		}
		return a, b, (a + b) % 220
	}
	rows := func(res *Result, err error) string {
		if err != nil {
			return outcome(nil, err)
		}
		return outcome(&Result{Columns: res.Columns, Rows: res.Rows}, nil)
	}
	rs := ref.NewSession()
	awaitRows(t, rs, "users", 200)
	reference := func(q string) string {
		ref.planCache = optimizer.NewPlanCache(0)
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return rows(rs.ExecuteStmt(stmt))
	}
	want := make([][]string, sessions+1) // the last row is the prepared statement's
	for w := range want {
		for r := 0; r < rounds; r++ {
			want[w] = append(want[w], reference(text(keys(w, r))))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions+2)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := cn.NewSession()
			for r := 0; r < rounds; r++ {
				if got := rows(s.Execute(text(keys(w, r)))); got != want[w][r] {
					errs <- fmt.Errorf("session %d: %s:\n%s\nwant (cold parse path):\n%s", w, text(keys(w, r)), got, want[w][r])
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	replan := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(replan)
		s := cn.NewSession()
		for i := 0; i < ddls; i++ {
			if _, err := s.Execute(fmt.Sprintf("CREATE TABLE bump%d (id BIGINT, PRIMARY KEY(id))", i)); err != nil {
				errs <- err
				return
			}
			replan <- struct{}{}
		}
	}()
	go func() {
		defer wg.Done()
		defer func() {
			for range replan { // let the DDL session finish
			}
		}()
		s := cn.NewSession()
		p, err := s.Prepare("SELECT id, name, balance FROM users WHERE id IN (?, ?, ?)")
		if err != nil {
			errs <- err
			return
		}
		for r := 0; r < rounds; r++ {
			if r%(rounds/ddls) == 0 {
				<-replan // the next Execute misses and re-plans
			}
			a, b, d := keys(sessions, r)
			if got := rows(p.Execute(types.Int(int64(a)), types.Int(int64(b)), types.Int(int64(d)))); got != want[sessions][r] {
				errs <- fmt.Errorf("prepared: %s:\n%s\nwant (cold parse path):\n%s", text(a, b, d), got, want[sessions][r])
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
