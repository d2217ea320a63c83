package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/types"
)

// TestRandomizedQueriesMatchModel is a differential test: randomly
// generated filters, aggregations and orderings run through the full
// distributed pipeline (parser → optimizer → routing → DN scans with
// pushdown → executor) and must match a direct in-memory evaluation
// over the same rows.
func TestRandomizedQueriesMatchModel(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE m (id BIGINT, a BIGINT, b BIGINT, g VARCHAR(4), PRIMARY KEY(id)) PARTITIONS 4`)

	type row struct {
		id, a, b int64
		g        string
	}
	rng := rand.New(rand.NewSource(99))
	var model []row
	const n = 300
	stmt := "INSERT INTO m (id, a, b, g) VALUES "
	for i := 0; i < n; i++ {
		r := row{id: int64(i), a: int64(rng.Intn(50)), b: int64(rng.Intn(1000) - 500),
			g: fmt.Sprintf("g%d", rng.Intn(4))}
		model = append(model, r)
		if i > 0 {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d, %d, '%s')", r.id, r.a, r.b, r.g)
	}
	mustExec(t, s, stmt)

	// 1. Random range/equality filters with COUNT + SUM cross-check.
	for trial := 0; trial < 30; trial++ {
		lo := int64(rng.Intn(50))
		hi := lo + int64(rng.Intn(30))
		bcut := int64(rng.Intn(1000) - 500)
		g := fmt.Sprintf("g%d", rng.Intn(4))
		var variants = []struct {
			where string
			match func(row) bool
		}{
			{fmt.Sprintf("a BETWEEN %d AND %d", lo, hi),
				func(r row) bool { return r.a >= lo && r.a <= hi }},
			{fmt.Sprintf("a >= %d AND b < %d", lo, bcut),
				func(r row) bool { return r.a >= lo && r.b < bcut }},
			{fmt.Sprintf("g = '%s' OR a < %d", g, lo),
				func(r row) bool { return r.g == g || r.a < lo }},
			{fmt.Sprintf("NOT (a > %d) AND g <> '%s'", hi, g),
				func(r row) bool { return !(r.a > hi) && r.g != g }},
			{fmt.Sprintf("a IN (%d, %d, %d)", lo, lo+3, lo+7),
				func(r row) bool { return r.a == lo || r.a == lo+3 || r.a == lo+7 }},
		}
		v := variants[trial%len(variants)]
		var wantCount, wantSum int64
		for _, r := range model {
			if v.match(r) {
				wantCount++
				wantSum += r.b
			}
		}
		res := mustExec(t, s, fmt.Sprintf("SELECT COUNT(*), SUM(b) FROM m WHERE %s", v.where))
		gotCount := res.Rows[0][0].AsInt()
		if gotCount != wantCount {
			t.Fatalf("WHERE %s: count %d, want %d", v.where, gotCount, wantCount)
		}
		if wantCount > 0 {
			if gotSum := res.Rows[0][1].AsInt(); gotSum != wantSum {
				t.Fatalf("WHERE %s: sum %d, want %d", v.where, gotSum, wantSum)
			}
		}
	}

	// 2. Grouped aggregation matches a model group-by.
	res := mustExec(t, s, "SELECT g, COUNT(*), SUM(a), MIN(b), MAX(b) FROM m GROUP BY g ORDER BY g")
	type agg struct {
		count, sum, minB, maxB int64
	}
	want := map[string]*agg{}
	for _, r := range model {
		a, ok := want[r.g]
		if !ok {
			a = &agg{minB: 1 << 62, maxB: -(1 << 62)}
			want[r.g] = a
		}
		a.count++
		a.sum += r.a
		if r.b < a.minB {
			a.minB = r.b
		}
		if r.b > a.maxB {
			a.maxB = r.b
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups: %d vs %d", len(res.Rows), len(want))
	}
	for _, rrow := range res.Rows {
		w := want[rrow[0].AsString()]
		if rrow[1].AsInt() != w.count || rrow[2].AsInt() != w.sum ||
			rrow[3].AsInt() != w.minB || rrow[4].AsInt() != w.maxB {
			t.Fatalf("group %s: got %v want %+v", rrow[0].AsString(), rrow, *w)
		}
	}

	// 3. ORDER BY + LIMIT matches a model sort.
	res = mustExec(t, s, "SELECT id FROM m ORDER BY b DESC, id LIMIT 10")
	sorted := append([]row(nil), model...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].b != sorted[j].b {
			return sorted[i].b > sorted[j].b
		}
		return sorted[i].id < sorted[j].id
	})
	for i := 0; i < 10; i++ {
		if res.Rows[i][0].AsInt() != sorted[i].id {
			t.Fatalf("order[%d] = %v, want %d", i, res.Rows[i][0], sorted[i].id)
		}
	}

	// 4. Mutations keep the model in sync: random updates then recheck.
	for trial := 0; trial < 10; trial++ {
		id := int64(rng.Intn(n))
		delta := int64(rng.Intn(100))
		mustExec(t, s, fmt.Sprintf("UPDATE m SET b = b + %d WHERE id = %d", delta, id))
		model[id].b += delta
	}
	var wantTotal int64
	for _, r := range model {
		wantTotal += r.b
	}
	res = mustExec(t, s, "SELECT SUM(b) FROM m")
	if res.Rows[0][0].AsInt() != wantTotal {
		t.Fatalf("post-update sum %v, want %d", res.Rows[0][0], wantTotal)
	}

	// 5. A TP-classified two-phase aggregate: 300 rows cost less than
	// the AP threshold, so the per-shard partial aggregates read both DN
	// groups' leaders through the statement's transaction branches.
	res = mustExec(t, s, "SELECT g, COUNT(*), SUM(b), AVG(a) FROM m GROUP BY g ORDER BY g")
	if ex := res.Plan.Explain(); !strings.Contains(ex, "class=TP") || !strings.Contains(ex, "two-phase") {
		t.Fatalf("want a TP two-phase aggregate:\n%s", ex)
	}
	type gagg struct{ count, sumB, sumA int64 }
	byG := map[string]*gagg{}
	var gs []string
	for _, r := range model {
		if byG[r.g] == nil {
			byG[r.g] = &gagg{}
			gs = append(gs, r.g)
		}
		byG[r.g].count++
		byG[r.g].sumB += r.b
		byG[r.g].sumA += r.a
	}
	sort.Strings(gs)
	if len(res.Rows) != len(gs) {
		t.Fatalf("two-phase groups: %d, want %d", len(res.Rows), len(gs))
	}
	for i, g := range gs {
		w, got := byG[g], res.Rows[i]
		if got[0].AsString() != g || got[1].AsInt() != w.count || got[2].AsInt() != w.sumB ||
			got[3].AsFloat() != float64(w.sumA)/float64(w.count) {
			t.Fatalf("two-phase group %s: got %v want %+v", g, got, *w)
		}
	}

	// 6. GROUP BY ... HAVING ... ORDER BY ... LIMIT.
	res = mustExec(t, s, "SELECT a, COUNT(*) AS c, SUM(b) FROM m GROUP BY a HAVING COUNT(*) >= 6 ORDER BY c DESC, a LIMIT 5")
	type aagg struct{ a, count, sumB int64 }
	byA := map[int64]*aagg{}
	for _, r := range model {
		if byA[r.a] == nil {
			byA[r.a] = &aagg{a: r.a}
		}
		byA[r.a].count++
		byA[r.a].sumB += r.b
	}
	var having []*aagg
	for _, w := range byA {
		if w.count >= 6 {
			having = append(having, w)
		}
	}
	sort.Slice(having, func(i, j int) bool {
		if having[i].count != having[j].count {
			return having[i].count > having[j].count
		}
		return having[i].a < having[j].a
	})
	if len(having) > 5 {
		having = having[:5]
	}
	if len(res.Rows) != len(having) || len(having) == 0 {
		t.Fatalf("having: %d rows, want %d (> 0)", len(res.Rows), len(having))
	}
	for i, w := range having {
		if got := res.Rows[i]; got[0].AsInt() != w.a || got[1].AsInt() != w.count || got[2].AsInt() != w.sumB {
			t.Fatalf("having[%d] = %v, want %+v", i, got, *w)
		}
	}

	// A second table: d.a repeats, misses some of m.a, and is sometimes
	// NULL.
	mustExec(t, s, `CREATE TABLE d (id BIGINT, a BIGINT, w BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	type drow struct {
		id, a, w int64
		aNull    bool
	}
	var dim []drow
	stmt = "INSERT INTO d (id, a, w) VALUES "
	for i := 0; i < 40; i++ {
		r := drow{id: int64(i), a: int64(rng.Intn(70)), w: int64(rng.Intn(100)), aNull: i%9 == 0}
		dim = append(dim, r)
		if i > 0 {
			stmt += ", "
		}
		if r.aNull {
			stmt += fmt.Sprintf("(%d, NULL, %d)", r.id, r.w)
		} else {
			stmt += fmt.Sprintf("(%d, %d, %d)", r.id, r.a, r.w)
		}
	}
	mustExec(t, s, stmt)
	// pairs lists (m.id, d.id) of the model's join under on, in the
	// order the assertions sort the engine's rows into.
	pairs := func(left []row, outer bool, on func(row, drow) bool) [][2]int64 {
		var out [][2]int64
		for _, l := range left {
			matched := false
			for _, r := range dim {
				if on(l, r) {
					matched = true
					out = append(out, [2]int64{l.id, r.id})
				}
			}
			if outer && !matched {
				out = append(out, [2]int64{l.id, -1}) // -1 = NULL-extended
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i][0] != out[j][0] {
				return out[i][0] < out[j][0]
			}
			return out[i][1] < out[j][1]
		})
		return out
	}
	assertPairs := func(label string, res *Result, want [][2]int64) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: the model join is empty; the case tests nothing", label)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d\n%s", label, len(res.Rows), len(want), res.Plan.Explain())
		}
		for i, w := range want {
			got := res.Rows[i]
			if got[0].AsInt() != w[0] || (w[1] < 0) != got[1].IsNull() || (w[1] >= 0 && got[1].AsInt() != w[1]) {
				t.Fatalf("%s row %d = %v, want %v", label, i, got, w)
			}
		}
	}

	// 7. Two-table equi-join, inner and left outer, with a residual.
	equiOn := func(l row, r drow) bool { return !r.aNull && l.a == r.a && l.b < r.w*10-500 }
	for _, outer := range []bool{false, true} {
		join := "JOIN"
		if outer {
			join = "LEFT JOIN"
		}
		res = mustExec(t, s, "SELECT m.id, d.id FROM m "+join+" d ON m.a = d.a AND m.b < d.w * 10 - 500 ORDER BY m.id, d.id")
		if ex := res.Plan.Explain(); !strings.Contains(ex, "HashJoin") {
			t.Fatalf("want a hash join:\n%s", ex)
		}
		assertPairs("equi-"+join, res, pairs(model, outer, equiOn))
	}

	// 8. Non-equi (nested-loop) join, inner and left outer.
	few := model[:60]
	nlOn := func(l row, r drow) bool { return !r.aNull && l.a > r.a+40 }
	for _, outer := range []bool{false, true} {
		join := "JOIN"
		if outer {
			join = "LEFT JOIN"
		}
		res = mustExec(t, s, "SELECT m.id, d.id FROM m "+join+" d ON m.a > d.a + 40 WHERE m.id < 60 ORDER BY m.id, d.id")
		if ex := res.Plan.Explain(); !strings.Contains(ex, "NestedLoopJoin") {
			t.Fatalf("want a nested-loop join:\n%s", ex)
		}
		assertPairs("nl-"+join, res, pairs(few, outer, nlOn))
	}

	// 9. A multi-shard scan joined to point lookups under one
	// transaction, repeatedly: the scan is lowered first, and on each DN
	// either the IN list's MultiGet or a fragment's scan may be the
	// branch's first contact.
	in := func(l row, r drow) bool {
		return !r.aNull && l.a == r.a && (l.id == 3 || l.id == 77 || l.id == 150 || l.id == 299)
	}
	wantIn := pairs(model, false, in)
	for i := 0; i < 40; i++ {
		res = mustExec(t, s, "SELECT m.id, d.id FROM d JOIN m ON m.a = d.a WHERE m.id IN (3, 77, 150, 299) ORDER BY m.id, d.id")
		if i == 0 {
			if ex := res.Plan.Explain(); !strings.Contains(ex, "class=TP") || !strings.Contains(ex, "point×4") {
				t.Fatalf("want TP point lookups under the join:\n%s", ex)
			}
		}
		assertPairs("point-join", res, wantIn)
	}

	// 10. A GSI lookup (index shard read + scattered base-row reads)
	// with a residual.
	mustExec(t, s, "CREATE GLOBAL INDEX idx_m_a ON m (a)")
	for _, a := range []int64{model[0].a, model[1].a, 49} {
		res = mustExec(t, s, fmt.Sprintf("SELECT id, b FROM m WHERE a = %d AND b >= 0 ORDER BY id", a))
		if ex := res.Plan.Explain(); !strings.Contains(ex, "gsi=idx_m_a") {
			t.Fatalf("want the GSI route:\n%s", ex)
		}
		var want []row
		for _, r := range model {
			if r.a == a && r.b >= 0 {
				want = append(want, r)
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("gsi a=%d: %d rows, want %d", a, len(res.Rows), len(want))
		}
		for i, w := range want {
			if got := res.Rows[i]; got[0].AsInt() != w.id || got[1].AsInt() != w.b {
				t.Fatalf("gsi a=%d row %d = %v, want %+v", a, i, got, w)
			}
		}
	}
}

// TestRandomizedJoinMatchesModel cross-checks a two-table equi-join
// against a nested-loop model evaluation.
func TestRandomizedJoinMatchesModel(t *testing.T) {
	c := newTestCluster(t, Config{DNGroups: 2})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE l (id BIGINT, k BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	mustExec(t, s, `CREATE TABLE r (id BIGINT, k BIGINT, w BIGINT, PRIMARY KEY(id)) PARTITIONS 4`)
	rng := rand.New(rand.NewSource(7))
	type lr struct{ id, k, v int64 }
	var ls, rs []lr
	stmtL := "INSERT INTO l (id, k, v) VALUES "
	for i := 0; i < 120; i++ {
		e := lr{int64(i), int64(rng.Intn(20)), int64(rng.Intn(100))}
		ls = append(ls, e)
		if i > 0 {
			stmtL += ", "
		}
		stmtL += fmt.Sprintf("(%d, %d, %d)", e.id, e.k, e.v)
	}
	mustExec(t, s, stmtL)
	stmtR := "INSERT INTO r (id, k, w) VALUES "
	for i := 0; i < 80; i++ {
		e := lr{int64(i), int64(rng.Intn(20)), int64(rng.Intn(100))}
		rs = append(rs, e)
		if i > 0 {
			stmtR += ", "
		}
		stmtR += fmt.Sprintf("(%d, %d, %d)", e.id, e.k, e.v)
	}
	mustExec(t, s, stmtR)

	// Model: inner join on k with a residual range filter.
	var wantCount, wantSum int64
	for _, a := range ls {
		for _, b := range rs {
			if a.k == b.k && a.v > 20 {
				wantCount++
				wantSum += a.v + b.v // b.w column holds e.v (inserted above)
			}
		}
	}
	res := mustExec(t, s, `
		SELECT COUNT(*), SUM(l.v + r.w) FROM l JOIN r ON l.k = r.k WHERE l.v > 20`)
	if res.Rows[0][0].AsInt() != wantCount {
		t.Fatalf("join count %v, want %d", res.Rows[0][0], wantCount)
	}
	if wantCount > 0 && res.Rows[0][1].AsInt() != wantSum {
		t.Fatalf("join sum %v, want %d", res.Rows[0][1], wantSum)
	}
}

var _ = types.Int // keep types import for helper reuse
