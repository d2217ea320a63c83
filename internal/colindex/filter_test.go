package colindex

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hlc"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// The differential schema: one column per storage form the index picks
// (see colVec.choose), most of them with NULLs.
func diffSchema() *types.Schema {
	return types.NewSchema("diff", []types.Column{
		{Name: "id", Kind: types.KindInt},        // bit-packed
		{Name: "qty", Kind: types.KindInt},       // bit-packed, i%4
		{Name: "grp", Kind: types.KindInt},       // run-length, NULL runs
		{Name: "price", Kind: types.KindFloat},   // raw float, NULLs
		{Name: "status", Kind: types.KindString}, // dictionary, NULLs
		{Name: "name", Kind: types.KindString},   // raw string, NULLs
		{Name: "flag", Kind: types.KindBool},     // bit-packed bool
		{Name: "score", Kind: types.KindInt},     // bit-packed, NULLs
	}, []int{0})
}

func diffRow(i int) types.Row {
	row := types.Row{
		types.Int(int64(i)),
		types.Int(int64(i % 4)),
		types.Int(int64(i / 100)),
		types.Float(float64(i%97) / 4),
		types.Str([]string{"A", "B", "C", "D", "E"}[(i*7)%5]),
		types.Str(fmt.Sprintf("n%04d", i)),
		types.Bool(i%3 == 0),
		types.Int(int64((i*37)%101 - 50)),
	}
	if (i/100)%7 == 3 {
		row[2] = types.Null()
	}
	if i%11 == 0 {
		row[3] = types.Null()
	}
	if i%13 == 0 {
		row[4] = types.Null()
	}
	if i%17 == 0 {
		row[5] = types.Null()
	}
	if i%9 == 0 {
		row[7] = types.Null()
	}
	return row
}

// randLit draws a literal for column c: mostly of the column's own
// class, sometimes NULL or another class (float literals on int
// columns, int literals on string columns).
func randLit(rng *rand.Rand, c int) types.Value {
	switch r := rng.Intn(10); {
	case r == 0:
		return types.Null()
	case r == 1:
		return types.Float(float64(rng.Intn(80)-10) + 0.5)
	case r == 2:
		return types.Int(int64(rng.Intn(40) - 5))
	case r == 3:
		return types.Str([]string{"A", "C", "E", "Z", "", "n0500", "n2"}[rng.Intn(7)])
	}
	switch c {
	case 0:
		return types.Int(int64(rng.Intn(3200) - 100))
	case 1:
		return types.Int(int64(rng.Intn(6) - 1))
	case 2:
		return types.Int(int64(rng.Intn(32) - 1))
	case 3:
		return types.Float(float64(rng.Intn(100)) / 4)
	case 4:
		return types.Str([]string{"A", "B", "C", "D", "E", "BB", "a"}[rng.Intn(7)])
	case 5:
		return types.Str(fmt.Sprintf("n%04d", rng.Intn(3200)))
	case 6:
		return types.Bool(rng.Intn(2) == 0)
	default:
		return types.Int(int64(rng.Intn(110) - 55))
	}
}

// randLeaf draws one conjunct: a comparison with the literal on either
// side, BETWEEN, IS [NOT] NULL, or (rarely) a shape the kernels leave to
// the residual.
func randLeaf(rng *rand.Rand, schema *types.Schema) sql.Expr {
	c := rng.Intn(len(schema.Columns))
	ref := &sql.ColumnRef{Column: schema.Columns[c].Name, Index: c}
	lit := func() sql.Expr { return &sql.Literal{Val: randLit(rng, c)} }
	switch r := rng.Intn(12); {
	case r < 6:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
		if rng.Intn(2) == 0 {
			return &sql.BinaryOp{Op: op, L: lit(), R: ref}
		}
		return &sql.BinaryOp{Op: op, L: ref, R: lit()}
	case r < 8:
		return &sql.Between{E: ref, Lo: lit(), Hi: lit(), Not: rng.Intn(4) == 0}
	case r < 10:
		return &sql.IsNull{E: ref, Not: rng.Intn(2) == 0}
	default:
		return &sql.BinaryOp{Op: "OR",
			L: &sql.BinaryOp{Op: "=", L: ref, R: lit()},
			R: &sql.BinaryOp{Op: "<", L: ref, R: lit()}}
	}
}

// TestFilterMatchesSQLEval is the column index's differential test: random
// conjunctions run through ScanBatch, its row form and AggScan must select
// exactly the rows sql.Eval selects, on every storage form.
func TestFilterMatchesSQLEval(t *testing.T) {
	eng := storage.NewEngine()
	if _, err := eng.CreateTable(1, 0, diffSchema()); err != nil {
		t.Fatal(err)
	}
	ix := New(1, diffSchema())
	b := NewBuilder(ix)
	var rows []types.Row
	for lo := 0; lo < 3000; lo += 1000 {
		var batch []types.Row
		for i := lo; i < lo+1000; i++ {
			batch = append(batch, diffRow(i))
		}
		feed(t, eng, b, batch)
		rows = append(rows, batch...)
	}
	for c, want := range []string{"pack", "pack", "rle", "raw", "dict", "raw", "pack", "pack"} {
		d := ix.cols[c].data
		got := "raw"
		switch {
		case d.Dict != nil:
			got = "dict"
		case d.RLE != nil:
			got = "rle"
		case d.Pack != nil:
			got = "pack"
		}
		if got != want {
			t.Fatalf("column %d stored as %s, want %s", c, got, want)
		}
	}
	schema := diffSchema()
	qty := &sql.ColumnRef{Column: "qty", Index: 1}
	price := &sql.ColumnRef{Column: "price", Index: 3}
	filters := []sql.Expr{
		nil,
		&sql.BinaryOp{Op: "<", L: qty, R: &sql.Literal{Val: types.Float(1.5)}},
		&sql.BinaryOp{Op: "=", L: qty, R: &sql.Literal{Val: types.Null()}},
		&sql.BinaryOp{Op: "AND",
			L: &sql.BinaryOp{Op: ">", L: price, R: &sql.Literal{Val: types.Float(9.5)}},
			R: &sql.BinaryOp{Op: "<", L: price, R: &sql.Literal{Val: types.Int(10)}}},
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 250; k++ {
		var f sql.Expr = randLeaf(rng, schema)
		for j := rng.Intn(3); j > 0; j-- {
			f = &sql.BinaryOp{Op: "AND", L: f, R: randLeaf(rng, schema)}
		}
		filters = append(filters, f)
	}
	ts := clk.Now()
	for _, f := range filters {
		want := rows
		if f != nil {
			want = nil
			for _, r := range rows {
				v, err := sql.Eval(f, r)
				if err != nil {
					t.Fatalf("%s: eval: %v", sql.String(f), err)
				}
				if v.IsTruthy() {
					want = append(want, r)
				}
			}
		}
		checkDiff(t, ix, ts, f, want)
	}

	// A ScanReq may name any column: past the schema is an error on
	// every scan form, not a panic.
	ghost := &sql.BinaryOp{Op: ">", L: &sql.ColumnRef{Column: "ghost", Index: 8}, R: &sql.Literal{Val: types.Int(1)}}
	if _, err := ix.ScanBatch(ts, ghost, nil, 0); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("ScanBatch: err = %v, want ErrBadColumn", err)
	}
	if _, err := ix.AggScan(ts, ghost, nil, []AggSpec{{Func: "COUNT", Star: true}}); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("AggScan: err = %v, want ErrBadColumn", err)
	}
	if _, err := ix.AggScan(ts, nil, nil, []AggSpec{{Func: "SUM", Col: 9}}); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("AggScan aggregate: err = %v, want ErrBadColumn", err)
	}
}

func checkDiff(t *testing.T, ix *Index, ts hlc.Timestamp, f sql.Expr, want []types.Row) {
	t.Helper()
	name := "<nil>"
	if f != nil {
		name = sql.String(f)
	}
	b, err := ix.ScanBatch(ts, f, nil, 0)
	if err != nil {
		t.Fatalf("%s: ScanBatch: %v", name, err)
	}
	got := b.AppendRows(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: ScanBatch selects %d rows, sql.Eval %d", name, len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if got[i][c].Compare(want[i][c]) != 0 {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	ids, err := scanRows(ix, ts, f, []int{0}, 5)
	if err != nil {
		t.Fatalf("%s: row form: %v", name, err)
	}
	if len(ids) != min(5, len(want)) {
		t.Fatalf("%s: row form with limit 5 = %d rows, want %d", name, len(ids), min(5, len(want)))
	}
	for i, r := range ids {
		if len(r) != 1 || r[0].I != want[i][0].I {
			t.Fatalf("%s: row form row %d = %v, want id %v", name, i, r, want[i][0])
		}
	}
	agg, err := ix.AggScan(ts, f, nil, []AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "SUM", Col: 1},
		{Func: "COUNT", Col: 3},
		{Func: "SUM", Col: 3},
	})
	if err != nil {
		t.Fatalf("%s: AggScan: %v", name, err)
	}
	var sumQty int64
	var nPrice int64
	var sumPrice float64
	for _, r := range want {
		sumQty += r[1].I
		if !r[3].IsNull() {
			nPrice++
			sumPrice += r[3].F
		}
	}
	row := agg[0]
	if row[0].I != int64(len(want)) || row[2].I != nPrice {
		t.Fatalf("%s: AggScan counts = %v, want %d and %d", name, row, len(want), nPrice)
	}
	if len(want) > 0 && row[1].I != sumQty || len(want) == 0 && !row[1].IsNull() {
		t.Fatalf("%s: AggScan SUM(qty) = %v, want %d", name, row[1], sumQty)
	}
	if nPrice > 0 && math.Abs(row[3].F-sumPrice) > 1e-6 || nPrice == 0 && !row[3].IsNull() {
		t.Fatalf("%s: AggScan SUM(price) = %v, want %v", name, row[3], sumPrice)
	}
}
