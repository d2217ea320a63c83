package gen

import (
	"strings"
	"testing"

	"repro/internal/sql"
)

func TestSbtestRowsAreAFunctionOfSeedAndID(t *testing.T) {
	a, b, other := Sbtest{Seed: 1, Rows: 1000}, Sbtest{Seed: 1, Rows: 1000}, Sbtest{Seed: 2, Rows: 1000}
	differ := 0
	for id := int64(0); id < 1000; id++ {
		if a.C(id) != b.C(id) || a.K(id) != b.K(id) || a.Pad(id) != b.Pad(id) {
			t.Fatalf("row %d differs between two generators of one seed", id)
		}
		if !a.CheckC(id, a.C(id)) || a.CheckC(id, a.C(id+1)) {
			t.Fatalf("CheckC disagrees with C at id %d", id)
		}
		if k := a.K(id); k < 0 || k >= 1000 {
			t.Fatalf("K(%d) = %d out of range", id, k)
		}
		if a.C(id) != other.C(id) {
			differ++
		}
	}
	if differ < 990 {
		t.Fatalf("only %d of 1000 rows differ between seeds 1 and 2", differ)
	}
	if got := a.InsertSQL(0, 2); !strings.Contains(got, a.C(1)) || !strings.HasPrefix(got, "INSERT INTO sbtest") {
		t.Fatalf("InsertSQL = %q", got)
	}
}

func TestStreamsRepeatForOneSeedAndKeepToTheirHalf(t *testing.T) {
	table := Sbtest{Seed: 5, Rows: 2000}
	for parity := 0; parity < 2; parity++ {
		a, b := NewReadGen(table, 5, parity), NewReadGen(table, 5, parity)
		wa, wb := NewWriteGen(table, 5, parity), NewWriteGen(table, 5, parity)
		kinds := make(map[ReadKind]int)
		for i := 0; i < 4000; i++ {
			opA, opB := a.Next(), b.Next()
			if opA.SQL != opB.SQL {
				t.Fatalf("read streams of one seed diverge at %d: %q vs %q", i, opA.SQL, opB.SQL)
			}
			kinds[opA.Kind]++
			if opA.Kind != ReadRange { // a range starts on the connection's half and covers both
				for _, id := range opA.IDs {
					if int(id%2) != parity {
						t.Fatalf("parity %d stream read id %d: %s", parity, id, opA.SQL)
					}
				}
			}
			ta, tb := wa.Next(), wb.Next()
			if ta.Stmts != tb.Stmts {
				t.Fatalf("write streams of one seed diverge at %d", i)
			}
			ids := ta.IDs
			if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
				t.Fatalf("write transaction touches a row twice: %v", ids)
			}
			for _, id := range ids {
				if int(id%2) != parity {
					t.Fatalf("parity %d stream wrote id %d", parity, id)
				}
			}
		}
		// 75/10/10/5, give or take sampling noise.
		for kind, want := range map[ReadKind]int{ReadPoint: 3000, ReadIn: 400, ReadRange: 400, ReadAdHoc: 200} {
			if got := kinds[kind]; got < want*8/10 || got > want*12/10 {
				t.Errorf("kind %d: %d of 4000 statements, want about %d", kind, got, want)
			}
		}
	}
	if NewReadGen(table, 5, 0).Next().SQL == NewReadGen(table, 6, 0).Next().SQL &&
		NewReadGen(table, 5, 0).Next().SQL == NewReadGen(table, 7, 0).Next().SQL {
		t.Error("seeds 5, 6 and 7 start with the same statement")
	}
}

func TestAdHocFamilyHasDistinctFingerprints(t *testing.T) {
	g := NewReadGen(Sbtest{Seed: 1, Rows: 1000}, 1, 0)
	seen := make(map[string]int)
	for shape := 0; shape < AdHocShapes; shape++ {
		op := g.AdHoc(shape)
		stmt, err := sql.Parse(op.SQL)
		if err != nil {
			t.Fatalf("shape %d: %q: %v", shape, op.SQL, err)
		}
		fp, _, ok := sql.FingerprintSelect(stmt.(*sql.Select))
		if !ok {
			t.Fatalf("shape %d is not cacheable: %q", shape, op.SQL)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("shapes %d and %d share fingerprint %q", prev, shape, fp)
		}
		seen[fp] = shape
		if len(op.IDs) > 1 || op.CCol < 0 {
			t.Fatalf("shape %d: expectation %+v", shape, op)
		}
	}
	// The same shape with other literals keeps its fingerprint.
	for shape := 0; shape < AdHocShapes; shape += 97 {
		stmt, err := sql.Parse(g.AdHoc(shape).SQL)
		if err != nil {
			t.Fatal(err)
		}
		fp, _, _ := sql.FingerprintSelect(stmt.(*sql.Select))
		if seen[fp] != shape {
			t.Fatalf("shape %d rendered twice gives fingerprints of shapes %d and %d", shape, shape, seen[fp])
		}
	}
}

func TestTPCCTablesRepeatAndAgree(t *testing.T) {
	cfg := TPCC{Seed: 3, Warehouses: 2, CustomersPerDist: 5, Items: 50, InitialOrders: 12, Partitions: 4}
	a, b := cfg.Tables(), cfg.Tables()
	counts := make(map[string]int)
	var lines, lineCount int64
	for i, table := range a {
		counts[table.Name] = len(table.Rows)
		sa, sb := table.InsertSQL(), b[i].InsertSQL()
		if strings.Join(sa, ";") != strings.Join(sb, ";") {
			t.Fatalf("table %s differs between two generations of one seed", table.Name)
		}
		for _, stmt := range sa {
			if _, err := sql.Parse(stmt); err != nil {
				t.Fatalf("%s: generated INSERT does not parse: %v", table.Name, err)
			}
		}
		switch table.Name {
		case "orders":
			for _, row := range table.Rows {
				lines += row[6].I // o_ol_cnt
			}
		case "order_line":
			lineCount = int64(len(table.Rows))
			for _, row := range table.Rows {
				if n := row[OLNumber].I; n < 0 || n >= MaxOrderLines || row[0].I != OrderLineKey(row[1].I, int(n)) {
					t.Fatalf("order line %v: bad number or key", row)
				}
			}
		}
	}
	if lines != lineCount {
		t.Errorf("SUM(o_ol_cnt) = %d but %d order lines", lines, lineCount)
	}
	want := map[string]int{"item": 50, "warehouse": 2, "stock": 100, "district": 20, "customer": 100, "orders": 240, "new_order": 80}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s has %d rows, want %d", name, counts[name], n)
		}
	}
	for _, ddl := range cfg.DDL() {
		if _, err := sql.Parse(ddl); err != nil {
			t.Errorf("DDL does not parse: %v", err)
		}
	}
	for _, q := range CHQueries {
		if _, err := sql.Parse(q); err != nil {
			t.Errorf("%q does not parse: %v", q, err)
		}
	}
}
