package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// rowsText renders a result's rows in order, one parenthesized row each.
func rowsText(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprint(&b, r)
	}
	return b.String()
}

// TestAggregateIdentityIsTheTree: the planner computes one aggregate per
// distinct expression tree. Two calls that differ only in DISTINCT, in a
// CASE body or in the case of a string literal are different trees and
// must not share a result. Every expected value is counted by hand from
// the seeded rows.
func TestAggregateIdentityIsTheTree(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	seedUsers(t, s, 20) // ids 0..19, city = city(id % 5), balance = 10 * id
	mustExec(t, s, `CREATE TABLE lc (id BIGINT, city VARCHAR(16), PRIMARY KEY(id)) PARTITIONS 2`)
	mustExec(t, s, `INSERT INTO lc (id, city) VALUES (1, 'CITY1'), (2, 'city2')`)

	// A cut-down TPC-H Q12: one line per (order, ship mode). MAIL has
	// two high-priority lines (orders 1, 2) and three low (3, 4, 5);
	// SHIP has three high (6, 1, 2) and one low (3).
	mustExec(t, s, `CREATE TABLE q12o (o_orderkey BIGINT, o_orderpriority VARCHAR(16), PRIMARY KEY(o_orderkey)) PARTITIONS 2`)
	mustExec(t, s, `INSERT INTO q12o (o_orderkey, o_orderpriority) VALUES
		(1, '1-URGENT'), (2, '2-HIGH'), (3, '3-MEDIUM'), (4, '4-NOT SPECIFIED'), (5, '5-LOW'), (6, '1-URGENT')`)
	mustExec(t, s, `CREATE TABLE q12l (l_id BIGINT, l_orderkey BIGINT, l_shipmode VARCHAR(8), PRIMARY KEY(l_id)) PARTITIONS 2`)
	mustExec(t, s, `INSERT INTO q12l (l_id, l_orderkey, l_shipmode) VALUES
		(1, 1, 'MAIL'), (2, 2, 'MAIL'), (3, 3, 'MAIL'), (4, 4, 'MAIL'), (5, 5, 'MAIL'),
		(6, 6, 'SHIP'), (7, 3, 'SHIP'), (8, 1, 'SHIP'), (9, 2, 'SHIP')`)

	cases := []struct{ q, want string }{
		{"SELECT COUNT(city), COUNT(DISTINCT city) FROM users", "(20, 5)"},
		{"SELECT COUNT(DISTINCT city), COUNT(city) FROM users", "(5, 20)"},
		{"SELECT SUM(CASE WHEN id < 5 THEN 1 ELSE 0 END), SUM(CASE WHEN id < 10 THEN 1 ELSE 0 END) FROM users", "(5, 10)"},
		{"SELECT MAX(city IN ('city1')), MAX(city IN ('CITY1')) FROM lc WHERE id = 1", "(false, true)"},
		{"SELECT MAX(city IN ('CITY1')), MAX(city IN ('city1')) FROM lc WHERE id = 1", "(true, false)"},
		{`SELECT l.l_shipmode,
			SUM(CASE WHEN o.o_orderpriority = '1-URGENT' OR o.o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count,
			SUM(CASE WHEN o.o_orderpriority <> '1-URGENT' AND o.o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count
		FROM q12o o JOIN q12l l ON o.o_orderkey = l.l_orderkey
		GROUP BY l.l_shipmode ORDER BY l_shipmode`, "(MAIL, 2, 3)(SHIP, 3, 1)"},
	}
	for _, tc := range cases {
		res, err := s.Execute(tc.q)
		if err != nil {
			t.Errorf("%s: %v", tc.q, err)
			continue
		}
		if got := rowsText(res); got != tc.want {
			t.Errorf("%s:\n got %s under %v\nwant %s", tc.q, got, res.Columns, tc.want)
		}
	}
}

// TestUpdatePartitionKeyMovesRow: an UPDATE that changes a partition-key
// column which is not part of the primary key moves the row to the shard
// its new value routes to. Every row moves; none is lost or duplicated,
// and each is found by its new value.
func TestUpdatePartitionKeyMovesRow(t *testing.T) {
	c := newTestCluster(t, Config{})
	s := c.CN(simnet.DC1).NewSession()
	mustExec(t, s, `CREATE TABLE po (id BIGINT, oid BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 4 BY (oid)`)
	const n = 20
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO po (id, oid, v) VALUES (%d, %d, %d)", i, i, 100+i))
	}
	for i := 0; i < n; i++ {
		res, err := s.Execute(fmt.Sprintf("UPDATE po SET oid = %d WHERE id = %d", 1000+7*i, i))
		if err != nil {
			t.Fatalf("update id %d: %v", i, err)
		}
		if res.Affected != 1 {
			t.Fatalf("update id %d affected %d rows", i, res.Affected)
		}
	}
	if res := mustExec(t, s, "SELECT COUNT(*) FROM po"); res.Rows[0][0].AsInt() != n {
		t.Fatalf("COUNT(*) = %v after the updates, want %d", res.Rows[0][0], n)
	}
	for i := 0; i < n; i++ {
		res := mustExec(t, s, fmt.Sprintf("SELECT id, v FROM po WHERE oid = %d", 1000+7*i))
		if got, want := rowsText(res), fmt.Sprintf("(%d, %d)", i, 100+i); got != want {
			t.Errorf("oid %d: rows %s, want %s", 1000+7*i, got, want)
		}
		if res := mustExec(t, s, fmt.Sprintf("SELECT COUNT(*) FROM po WHERE oid = %d", i)); res.Rows[0][0].AsInt() != 0 {
			t.Errorf("oid %d: the old value still finds %v rows", i, res.Rows[0][0])
		}
	}
	// A move within one statement over many rows, back to the old values.
	res := mustExec(t, s, "UPDATE po SET oid = (oid - 1000) / 7 WHERE v >= 100")
	if res.Affected != n {
		t.Fatalf("multi-row update affected %d rows, want %d", res.Affected, n)
	}
	if res := mustExec(t, s, "SELECT SUM(oid), COUNT(*) FROM po"); rowsText(res) != fmt.Sprintf("(%d, %d)", n*(n-1)/2, n) {
		t.Fatalf("after moving back: %s", rowsText(res))
	}
}
