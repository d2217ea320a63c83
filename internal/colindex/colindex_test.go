package colindex

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

func itemSchema() *types.Schema {
	return types.NewSchema("items", []types.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "qty", Kind: types.KindInt},
		{Name: "price", Kind: types.KindFloat},
		{Name: "status", Kind: types.KindString},
	}, []int{0})
}

var clk = hlc.NewClock(nil)

// feed produces committed redo for a batch of rows through a real
// storage engine, so the index consumes exactly what RO nodes see.
func feed(t *testing.T, eng *storage.Engine, b *Builder, rows []types.Row) hlc.Timestamp {
	t.Helper()
	txn := eng.Begin(clk.Now())
	for _, r := range rows {
		if err := eng.Insert(txn, 1, r); err != nil {
			t.Fatal(err)
		}
	}
	ts := clk.Advance()
	if err := eng.Commit(txn, ts); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(txn.Redo()); err != nil {
		t.Fatal(err)
	}
	return ts
}

func item(id, qty int64, price float64, status string) types.Row {
	return types.Row{types.Int(id), types.Int(qty), types.Float(price), types.Str(status)}
}

func setup(t *testing.T) (*storage.Engine, *Index, *Builder) {
	t.Helper()
	eng := storage.NewEngine()
	if _, err := eng.CreateTable(1, 0, itemSchema()); err != nil {
		t.Fatal(err)
	}
	ix := New(1, itemSchema())
	return eng, ix, NewBuilder(ix)
}

// scanRows is the row form of ScanBatch, the RO's answer to a row scan.
func scanRows(ix *Index, ts hlc.Timestamp, filter sql.Expr, projection []int, limit int) ([]types.Row, error) {
	b, err := ix.ScanBatch(ts, filter, projection, limit)
	if err != nil {
		return nil, err
	}
	return b.AppendRows(nil), nil
}

func TestBuildFromRedoAndScan(t *testing.T) {
	eng, ix, b := setup(t)
	ts := feed(t, eng, b, []types.Row{
		item(1, 5, 10.0, "A"), item(2, 3, 20.0, "B"), item(3, 9, 5.0, "A"),
	})
	if ix.Rows() != 3 {
		t.Fatalf("rows = %d", ix.Rows())
	}
	if ix.Version() != ts {
		t.Fatalf("version = %v, want %v", ix.Version(), ts)
	}
	rows, err := scanRows(ix, clk.Now(), nil, nil, 0)
	if err != nil || len(rows) != 3 {
		t.Fatalf("scan = %v, %v", rows, err)
	}
}

func TestScanWithVectorFilter(t *testing.T) {
	eng, ix, b := setup(t)
	feed(t, eng, b, []types.Row{
		item(1, 5, 10.0, "A"), item(2, 3, 20.0, "B"), item(3, 9, 5.0, "A"),
	})
	// qty > 4 AND status = 'A'
	filter := &sql.BinaryOp{Op: "AND",
		L: &sql.BinaryOp{Op: ">", L: &sql.ColumnRef{Column: "qty", Index: 1}, R: &sql.Literal{Val: types.Int(4)}},
		R: &sql.BinaryOp{Op: "=", L: &sql.ColumnRef{Column: "status", Index: 3}, R: &sql.Literal{Val: types.Str("A")}},
	}
	rows, err := scanRows(ix, clk.Now(), filter, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 1 {
		t.Fatalf("filtered scan = %v", rows)
	}
	// Literal-on-left flip: 4 < qty is the same predicate.
	flip := &sql.BinaryOp{Op: "<", L: &sql.Literal{Val: types.Int(4)}, R: &sql.ColumnRef{Column: "qty", Index: 1}}
	rows2, _ := scanRows(ix, clk.Now(), flip, nil, 0)
	if len(rows2) != 2 {
		t.Fatalf("flipped literal = %d rows", len(rows2))
	}
}

func TestScanBetweenAndResidual(t *testing.T) {
	eng, ix, b := setup(t)
	feed(t, eng, b, []types.Row{
		item(1, 5, 10, "AB"), item(2, 6, 20, "CD"), item(3, 7, 30, "AX"),
	})
	btw := &sql.Between{E: &sql.ColumnRef{Column: "qty", Index: 1},
		Lo: &sql.Literal{Val: types.Int(5)}, Hi: &sql.Literal{Val: types.Int(6)}}
	rows, err := scanRows(ix, clk.Now(), btw, nil, 0)
	if err != nil || len(rows) != 2 {
		t.Fatalf("between = %v, %v", rows, err)
	}
	// LIKE is not vectorizable → residual path.
	like := &sql.BinaryOp{Op: "LIKE", L: &sql.ColumnRef{Column: "status", Index: 3},
		R: &sql.Literal{Val: types.Str("A%")}}
	rows, err = scanRows(ix, clk.Now(), like, nil, 0)
	if err != nil || len(rows) != 2 {
		t.Fatalf("residual like = %v, %v", rows, err)
	}
}

func TestUpdateAndDeleteVisibility(t *testing.T) {
	eng, ix, b := setup(t)
	feed(t, eng, b, []types.Row{item(1, 5, 10, "A")})
	tsBefore := clk.Now()

	// Update id=1, delete after snapshot.
	txn := eng.Begin(clk.Now())
	if err := eng.Update(txn, 1, item(1, 50, 10, "A")); err != nil {
		t.Fatal(err)
	}
	tsUpdate := clk.Advance()
	eng.Commit(txn, tsUpdate)
	b.Apply(txn.Redo())

	// Old snapshot sees qty=5; new sees qty=50.
	rows, _ := scanRows(ix, tsBefore, nil, nil, 0)
	if len(rows) != 1 || rows[0][1].AsInt() != 5 {
		t.Fatalf("old snapshot = %v", rows)
	}
	rows, _ = scanRows(ix, clk.Now(), nil, nil, 0)
	if len(rows) != 1 || rows[0][1].AsInt() != 50 {
		t.Fatalf("new snapshot = %v", rows)
	}

	del := eng.Begin(clk.Now())
	if err := eng.Delete(del, 1, types.EncodeKey(nil, types.Int(1))); err != nil {
		t.Fatal(err)
	}
	eng.Commit(del, clk.Advance())
	b.Apply(del.Redo())
	rows, _ = scanRows(ix, clk.Now(), nil, nil, 0)
	if len(rows) != 0 {
		t.Fatalf("post-delete scan = %v", rows)
	}
	if ix.Rows() != 0 {
		t.Fatalf("live rows = %d", ix.Rows())
	}
}

func TestAbortedTxnNeverApplied(t *testing.T) {
	eng, ix, b := setup(t)
	txn := eng.Begin(clk.Now())
	eng.Insert(txn, 1, item(1, 5, 10, "A"))
	redo := txn.Redo()
	eng.Abort(txn)
	redo = append(redo, wal.Record{Type: wal.RecAbort, TxnID: txn.ID})
	if err := b.Apply(redo); err != nil {
		t.Fatal(err)
	}
	if ix.Rows() != 0 {
		t.Fatal("aborted rows leaked into column index")
	}
}

func TestDelayedBatchingLagsVersion(t *testing.T) {
	eng, ix, b := setup(t)
	ix.BatchSize = 3
	ts1 := feed(t, eng, b, []types.Row{item(1, 1, 1, "A")})
	feed(t, eng, b, []types.Row{item(2, 2, 2, "B")})
	if ix.Pending() != 2 || ix.Version() != 0 {
		t.Fatalf("pending=%d version=%v", ix.Pending(), ix.Version())
	}
	// Reads clamp to the index version: nothing visible yet.
	rows, _ := scanRows(ix, clk.Now(), nil, nil, 0)
	if len(rows) != 0 {
		t.Fatalf("unflushed rows visible: %v", rows)
	}
	_ = ts1
	// Third commit triggers the batch flush.
	feed(t, eng, b, []types.Row{item(3, 3, 3, "C")})
	if ix.Pending() != 0 {
		t.Fatalf("pending after flush = %d", ix.Pending())
	}
	rows, _ = scanRows(ix, clk.Now(), nil, nil, 0)
	if len(rows) != 3 {
		t.Fatalf("rows after flush = %d", len(rows))
	}
	// Manual flush path.
	ix.BatchSize = 100
	feed(t, eng, b, []types.Row{item(4, 4, 4, "D")})
	if ix.Pending() != 1 {
		t.Fatal("staging expected")
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if ix.Rows() != 4 {
		t.Fatalf("rows after manual flush = %d", ix.Rows())
	}
}

func TestAggScanMatchesRowAggregation(t *testing.T) {
	eng, ix, b := setup(t)
	var rows []types.Row
	for i := int64(0); i < 100; i++ {
		status := "A"
		if i%3 == 0 {
			status = "B"
		}
		rows = append(rows, item(i, i%7, float64(i)*1.5, status))
	}
	feed(t, eng, b, rows)

	got, err := ix.AggScan(clk.Now(), nil,
		[]int{3}, // GROUP BY status
		[]AggSpec{
			{Func: "COUNT", Star: true},
			{Func: "SUM", Col: 1},
			{Func: "AVG", Col: 2},
			{Func: "MIN", Col: 1},
			{Func: "MAX", Col: 2},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	// Compute expected by hand.
	type expect struct {
		count, sumQty int64
		sumPrice      float64
		minQty        int64
		maxPrice      float64
	}
	exp := map[string]*expect{"A": {minQty: 1 << 60}, "B": {minQty: 1 << 60}}
	for i := int64(0); i < 100; i++ {
		status := "A"
		if i%3 == 0 {
			status = "B"
		}
		e := exp[status]
		e.count++
		e.sumQty += i % 7
		e.sumPrice += float64(i) * 1.5
		if i%7 < e.minQty {
			e.minQty = i % 7
		}
		if float64(i)*1.5 > e.maxPrice {
			e.maxPrice = float64(i) * 1.5
		}
	}
	for _, row := range got {
		e := exp[row[0].AsString()]
		if e == nil {
			t.Fatalf("unexpected group %v", row[0])
		}
		// Layout: status, count, sum, avg_sum, avg_cnt, min, max.
		if row[1].AsInt() != e.count || row[2].AsInt() != e.sumQty {
			t.Fatalf("group %s: %v (want count=%d sum=%d)", row[0].AsString(), row, e.count, e.sumQty)
		}
		if row[3].AsFloat() != e.sumPrice || row[4].AsInt() != e.count {
			t.Fatalf("group %s avg state: %v", row[0].AsString(), row)
		}
		if row[5].AsInt() != e.minQty || row[6].AsFloat() != e.maxPrice {
			t.Fatalf("group %s min/max: %v", row[0].AsString(), row)
		}
	}
}

func TestAggScanGlobalEmpty(t *testing.T) {
	_, ix, _ := setup(t)
	got, err := ix.AggScan(clk.Now(), nil, nil, []AggSpec{{Func: "COUNT", Star: true}})
	if err != nil || len(got) != 1 || got[0][0].AsInt() != 0 {
		t.Fatalf("empty agg = %v, %v", got, err)
	}
}

func TestScanLimit(t *testing.T) {
	eng, ix, b := setup(t)
	feed(t, eng, b, []types.Row{item(1, 1, 1, "A"), item(2, 2, 2, "A"), item(3, 3, 3, "A")})
	rows, _ := scanRows(ix, clk.Now(), nil, nil, 2)
	if len(rows) != 2 {
		t.Fatalf("limit scan = %d", len(rows))
	}
}

func BenchmarkColumnVsRowAggScan(b *testing.B) {
	// This is the micro-ablation behind Fig. 10's column-index bars:
	// SUM/GROUP BY over the column index vs the MVCC row store.
	eng := storage.NewEngine()
	eng.CreateTable(1, 0, itemSchema())
	ix := New(1, itemSchema())
	builder := NewBuilder(ix)
	const n = 50000
	txn := eng.Begin(clk.Now())
	for i := int64(0); i < n; i++ {
		eng.Insert(txn, 1, item(i, i%7, float64(i), fmt.Sprintf("S%d", i%4)))
	}
	eng.Commit(txn, clk.Advance())
	builder.Apply(txn.Redo())
	snapshot := clk.Now()

	b.Run("colindex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := ix.AggScan(snapshot, nil, []int{3},
				[]AggSpec{{Func: "SUM", Col: 2}, {Func: "COUNT", Star: true}})
			if err != nil || len(rows) != 4 {
				b.Fatal(err)
			}
		}
	})
	b.Run("rowstore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sums := map[string]float64{}
			err := eng.ScanRangeAt(1, nil, nil, snapshot, func(_ []byte, row types.Row) bool {
				sums[row[3].AsString()] += row[2].AsFloat()
				return true
			})
			if err != nil || len(sums) != 4 {
				b.Fatal(err)
			}
		}
	})
}

// TestConcurrentApplyAndScan races stream maintenance against scans and
// aggregations; the race detector must stay quiet and every scan must
// observe a transactionally consistent prefix (counts never decrease).
func TestConcurrentApplyAndScan(t *testing.T) {
	eng, ix, b := setup(t)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := eng.Begin(clk.Now())
			if err := eng.Insert(txn, 1, item(i, i%7, float64(i), "A")); err != nil {
				done <- err
				return
			}
			if err := eng.Commit(txn, clk.Advance()); err != nil {
				done <- err
				return
			}
			if err := b.Apply(txn.Redo()); err != nil {
				done <- err
				return
			}
		}
	}()
	var last int64
	deadline := time.Now().Add(5 * time.Second)
	for last < 50 && time.Now().Before(deadline) {
		rows, err := ix.AggScan(clk.Now(), nil, nil,
			[]AggSpec{{Func: "COUNT", Star: true}})
		if err != nil {
			t.Fatal(err)
		}
		n := rows[0][0].AsInt()
		if n < last {
			t.Fatalf("count went backwards: %d -> %d", last, n)
		}
		last = n
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	if err, open := <-done; open && err != nil {
		t.Fatal(err)
	}
	if last == 0 {
		t.Fatal("scanner never observed data")
	}
}
