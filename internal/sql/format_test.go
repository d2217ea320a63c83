package sql

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// printCorpus seeds FuzzPrintRoundTrip: the statements of this package's
// parser and shape tests, and core's shape-test corpus.
var printCorpus = []string{
	`INSERT INTO users (id, name) VALUES (1, 'a'), (2, 'b')`,
	`INSERT INTO t VALUES (1, -2.5, NULL, TRUE)`,
	`UPDATE users SET balance = balance + 10, name = 'x' WHERE id = 7`,
	`DELETE FROM users WHERE id BETWEEN 1 AND 5`,
	`SELECT o.status, COUNT(*) AS cnt, SUM(o.total + 1) total_sum FROM orders o
		JOIN customers c ON o.cust_id = c.id LEFT JOIN nation n ON c.nation = n.id
		WHERE o.total > 100 AND c.segment IN ('AUTO', 'BUILDING') AND o.status NOT LIKE 'X%'
		GROUP BY o.status HAVING COUNT(*) > 5 ORDER BY cnt DESC, o.status LIMIT 10`,
	`SELECT * FROM a, b WHERE a.x = b.y`,
	`SELECT SUM(CASE WHEN t.x = 1 THEN t.y ELSE 0 END) FROM t`,
	`SELECT a + b * SUM(c.d) FROM t`,
	`SELECT id FROM t WHERE a >= 1 AND b IN (2, 3) AND name LIKE 'x%'`,
	`SELECT id FROM t WHERE x IN (SELECT y FROM u WHERE z > 3)`,
	`SELECT id FROM t WHERE bal > (SELECT AVG(bal) FROM t WHERE bal > 0)`,
	`SELECT id FROM t WHERE x NOT IN (SELECT y FROM u)`,
	`SELECT id FROM t WHERE (x + 1) * 2 = 6`,
	`SELECT id FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.id)`,
	`SELECT id FROM t WHERE x = 1 AND NOT EXISTS (SELECT * FROM u WHERE u.a = t.id)`,
	`SELECT c FROM t WHERE id IN (3,4) -- note`,
	`SELECT c FROM t WHERE s = "it''s"`,
	`SELECT c FROM t WHERE f > 1e3`,
	`SELECT c FROM t WHERE id = -'5'`,
	`SELECT c FROM t WHERE id = ?`,
	`SELECT a FROM t WHERE x = -5 AND s = 'it''s' AND f < .5 LIMIT 3`,
	`EXPLAIN ANALYZE SELECT id FROM sh WHERE id = 3`,
	`SELECT id, k FROM sh WHERE id = - 5`,
	`SELECT id FROM sh WHERE f = -5.0`,
	`SELECT id FROM sh WHERE id = - -4`,
	`SELECT id FROM sh WHERE k - 5 = 10`,
	`SELECT id FROM sh WHERE s = 'a\'b'`,
	`sElEcT id FrOm sh wHeRe id = 6;`,
	`SELECT id FROM sh WHERE b = TRUE AND id > 2`,
	`SELECT id FROM sh WHERE s IS NULL AND id > 1`,
	`SELECT id FROM sh WHERE s = NULL OR id = 1`,
	`SELECT k, COUNT(*) FROM sh WHERE id BETWEEN 1 AND 9 GROUP BY k HAVING COUNT(*) > 0 ORDER BY k`,
	`SELECT 'x', id FROM users WHERE id = 1`,
	`SELECT COUNT(*) + 1, MAX(balance) FROM users WHERE id > 1`,
	`SELECT city, SUM(balance) - 5 AS s FROM users WHERE id > 1 GROUP BY city ORDER BY city`,
	`SELECT balance * 2, COUNT(*) FROM users WHERE id > 1 GROUP BY balance * 2`,
	`SELECT SUM(balance + 1) + 1 FROM users WHERE id > 1`,
	`SELECT COUNT(city), COUNT(DISTINCT city) FROM users`,
	`SELECT MAX(city IN ('city1')), MAX(city IN ('CITY1')) FROM lc WHERE id = 1`,
	`SELECT a FROM t WHERE (a IN (1)) = TRUE AND NOT (b LIKE 'x') AND (c BETWEEN 1 AND 2) IS NULL`,
	`SELECT a AS key FROM t AS date`,
}

// printStmt renders any statement the formatter knows, EXPLAIN included.
func printStmt(stmt Statement, lift bool) (string, []*Literal, error) {
	f := formatter{lift: lift}
	f.stmt(stmt)
	return f.b.String(), f.lits, f.err
}

// FuzzPrintRoundTrip: the text printed from a parsed statement parses,
// and prints again to the same text; the lifted print has one '?' per
// collected literal, in the order Params finds them after a re-parse;
// and a SELECT fingerprints alike before and after the round trip.
func FuzzPrintRoundTrip(f *testing.F) {
	for _, s := range printCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text, _, err := printStmt(stmt, false)
		if err != nil {
			return // DDL and transaction control do not print
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", src, text, err)
		}
		if text2, _, _ := printStmt(again, false); text2 != text {
			t.Fatalf("%q: print is not a fixpoint:\n%s\n%s", src, text, text2)
		}

		lifted, lits, err := printStmt(stmt, true)
		if err != nil {
			t.Fatalf("%q: lifted print failed: %v", src, err)
		}
		bound, err := Parse(lifted)
		if err != nil {
			t.Fatalf("%q lifted to %q, which does not parse: %v", src, lifted, err)
		}
		params := Params(bound)
		if len(params) != len(lits) {
			t.Fatalf("%q: %d literals lifted into %q, which has %d parameters", src, len(lits), lifted, len(params))
		}
		for i, p := range params {
			p.Val = lits[i].Val
		}
		if text2, _, _ := printStmt(bound, false); text2 != text {
			t.Fatalf("%q: lifted, bound and printed gives\n%s\nnot\n%s", src, text2, text)
		}

		sel, ok := stmt.(*Select)
		if !ok || len(Params(stmt)) > 0 {
			return
		}
		fp, fparams, ok := FingerprintSelect(sel)
		fp2, fparams2, ok2 := FingerprintSelect(again.(*Select))
		if ok != ok2 || fp != fp2 || len(fparams) != len(fparams2) {
			t.Fatalf("%q: fingerprint (%v) %q before the round trip, (%v) %q after", src, ok, fp, ok2, fp2)
		}
		if !ok {
			return
		}
		if fp != lifted {
			t.Fatalf("%q: fingerprint %q, lifted print %q", src, fp, lifted)
		}
		for i := range fparams {
			if a, b := fparams[i].Val, fparams2[i].Val; a.K != b.K || !a.Equal(b) {
				t.Fatalf("%q: parameter %d is %v before the round trip, %v after", src, i, a, b)
			}
		}
	})
}

// TestKeyIsTheTree: expressions that differ only where the old rendering
// lost information get different keys; the case of identifiers and
// keywords does not count.
func TestKeyIsTheTree(t *testing.T) {
	key := func(s string) string {
		e, err := ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return Key(e)
	}
	distinct := [][2]string{
		{"COUNT(city)", "COUNT(DISTINCT city)"},
		{"SUM(CASE WHEN a < 5 THEN 1 ELSE 0 END)", "SUM(CASE WHEN a < 10 THEN 1 ELSE 0 END)"},
		{"city IN ('city1')", "city IN ('CITY1')"},
		{"a = 'it''s'", "a = 'it'"},
		{"a + 1", "a + 1.0"},
		{"a = '1'", "a = 1"},
		{"(a IN (1)) = TRUE", "a IN ((1) = TRUE)"},
		{"NOT a = b", "(NOT a) = b"},
	}
	for _, d := range distinct {
		if a, b := key(d[0]), key(d[1]); a == b {
			t.Errorf("%q and %q share the key %q", d[0], d[1], a)
		}
	}
	same := [][2]string{
		{"SUM(Balance * 2)", "sum(balance * 2)"},
		{"U.City IS NOT NULL", "u.city is not null"},
		{"a + (b)", "(a + b)"},
	}
	for _, d := range same {
		if a, b := key(d[0]), key(d[1]); a != b {
			t.Errorf("%q and %q: keys %q and %q", d[0], d[1], a, b)
		}
	}
	for expr, want := range map[string]string{
		"COUNT(DISTINCT City)":               "count(distinct city)",
		"MAX(City IN ('CITY1', 'it''s'))":    "max(city in ('CITY1', 'it''s'))",
		"-a + 1.0":                           "((- a) + 1.0)",
		"CASE WHEN a THEN 'X' ELSE NULL END": "case when a then 'X' else null end",
	} {
		if got := key(expr); got != want {
			t.Errorf("Key(%s) = %q, want %q", expr, got, want)
		}
	}
	// A column that names an aggregate's output keeps its literals.
	if got := Key(&ColumnRef{Column: "max(city in ('CITY1'))"}); got != "max(city in ('CITY1'))" {
		t.Errorf("aggregate output column keyed %q", got)
	}
}

// TestFingerprintSelectAllocs: the fingerprint allocates no more than the
// dedicated walk it replaced did (the counts it measured, go1.24 on
// linux/amd64): the string builder's growth and the parameter slice.
func TestFingerprintSelectAllocs(t *testing.T) {
	for _, tc := range []struct {
		q   string
		max float64
	}{
		{"SELECT c FROM sbtest WHERE id = 5", 5},
		{"SELECT name, balance FROM users WHERE id IN (1, 2, 3)", 7},
		{"SELECT k, COUNT(*) FROM sh WHERE id BETWEEN 1 AND 9 GROUP BY k HAVING COUNT(*) > 0 ORDER BY k", 8},
		{"SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.uid WHERE o.amount > 10.5 AND u.city = 'x' ORDER BY o.amount DESC LIMIT 10", 8},
		{"SELECT SUM(CASE WHEN a = 1 THEN b ELSE 0 END) FROM t JOIN u ON t.a = u.a", 7},
		{"SELECT id FROM sh WHERE b = TRUE AND s IS NULL AND id > 2", 6},
	} {
		stmt, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*Select)
		if got := testing.AllocsPerRun(100, func() { FingerprintSelect(sel) }); got > tc.max {
			t.Errorf("FingerprintSelect(%q) allocates %.0f times, want <= %.0f", tc.q, got, tc.max)
		}
	}
}

// TestFormatStmtParamize: placeholders and lifted literals share one
// vector, in textual order; bool and NULL stay inline.
func TestFormatStmtParamize(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE x = ? AND s = 'q' AND b = TRUE AND n IS NULL AND f < -1.5")
	if err != nil {
		t.Fatal(err)
	}
	Params(stmt)[0].Val = types.Int(7)
	text, args, err := FormatStmt(stmt, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT a FROM t WHERE (((((x = ?) AND (s = ?)) AND (b = TRUE)) AND n IS NULL) AND (f < ?))"; text != want {
		t.Fatalf("text %q, want %q", text, want)
	}
	if len(args) != 3 || args[0].I != 7 || args[1].S != "q" || args[2].F != -1.5 {
		t.Fatalf("args %v", args)
	}
	if _, _, err := FormatStmt(&Explain{Stmt: stmt}, true); err == nil || !strings.Contains(err.Error(), "cannot format") {
		t.Fatalf("EXPLAIN formatted: %v", err)
	}
}
