package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/types"
	"repro/internal/wal"
)

// testClock provides monotonically increasing timestamps.
var testClock = hlc.NewClock(nil)

func now() hlc.Timestamp     { return testClock.Now() }
func advance() hlc.Timestamp { return testClock.Advance() }

// usersSchema: (id INT PK, name STRING, balance INT).
func usersSchema() *types.Schema {
	return types.NewSchema("users", []types.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
		{Name: "balance", Kind: types.KindInt},
	}, []int{0})
}

func newUserEngine(t *testing.T) (*Engine, *Table) {
	t.Helper()
	e := NewEngine()
	tbl, err := e.CreateTable(1, 0, usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func userRow(id int64, name string, bal int64) types.Row {
	return types.Row{types.Int(id), types.Str(name), types.Int(bal)}
}

// commitTxn runs the 1PC fast path.
func commitTxn(t *testing.T, e *Engine, txn *Txn) hlc.Timestamp {
	t.Helper()
	ts, err := e.CommitOnePhase(txn, testClock)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestInsertGetCommit(t *testing.T) {
	e, tbl := newUserEngine(t)
	txn := e.Begin(now())
	if err := e.Insert(txn, 1, userRow(1, "alice", 100)); err != nil {
		t.Fatal(err)
	}
	// Own write visible before commit.
	row, ok, err := e.Get(txn, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
	if err != nil || !ok {
		t.Fatalf("own write invisible: %v %v", ok, err)
	}
	if row[1].AsString() != "alice" {
		t.Fatalf("row = %v", row)
	}
	commitTxn(t, e, txn)

	// New snapshot sees it.
	txn2 := e.Begin(now())
	_, ok, _ = e.Get(txn2, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
	if !ok {
		t.Fatal("committed row invisible to later snapshot")
	}
	if tbl.RowCount() != 1 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
}

func TestSnapshotIsolationReadersDontSeeLaterCommits(t *testing.T) {
	e, tbl := newUserEngine(t)
	w := e.Begin(now())
	e.Insert(w, 1, userRow(1, "alice", 100))
	commitTxn(t, e, w)

	reader := e.Begin(now()) // snapshot taken now
	w2 := e.Begin(now())
	e.Update(w2, 1, userRow(1, "alice", 50))
	commitTxn(t, e, w2) // commits after reader's snapshot

	row, ok, _ := e.Get(reader, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
	if !ok || row[2].AsInt() != 100 {
		t.Fatalf("reader saw %v; want pre-update balance 100", row)
	}
	// A fresh snapshot sees the update.
	r2 := e.Begin(now())
	row, _, _ = e.Get(r2, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
	if row[2].AsInt() != 50 {
		t.Fatalf("fresh reader saw %v", row)
	}
}

func TestWriteWriteConflictFirstCommitterWins(t *testing.T) {
	e, _ := newUserEngine(t)
	seed := e.Begin(now())
	e.Insert(seed, 1, userRow(1, "alice", 100))
	commitTxn(t, e, seed)

	t1 := e.Begin(now())
	t2 := e.Begin(now())
	if err := e.Update(t1, 1, userRow(1, "alice", 150)); err != nil {
		t.Fatal(err)
	}
	// Concurrent write to the same row conflicts immediately (no-wait).
	if err := e.Update(t2, 1, userRow(1, "alice", 200)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v", err)
	}
	commitTxn(t, e, t1)
	e.Abort(t2)

	// A txn whose snapshot predates t1's commit also conflicts.
	t3 := e.Begin(t1.SnapshotTS)
	if err := e.Update(t3, 1, userRow(1, "alice", 300)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale writer err = %v", err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	e, tbl := newUserEngine(t)
	txn := e.Begin(now())
	e.Insert(txn, 1, userRow(1, "alice", 100))
	if err := e.Abort(txn); err != nil {
		t.Fatal(err)
	}
	r := e.Begin(now())
	if _, ok, _ := e.Get(r, 1, tbl.Schema.PKKey(userRow(1, "", 0))); ok {
		t.Fatal("aborted insert visible")
	}
	if tbl.RowCount() != 0 {
		t.Fatalf("RowCount = %d after abort", tbl.RowCount())
	}
	// The key is writable again.
	txn2 := e.Begin(now())
	if err := e.Insert(txn2, 1, userRow(1, "bob", 5)); err != nil {
		t.Fatalf("insert over aborted version: %v", err)
	}
	commitTxn(t, e, txn2)
}

func TestDeleteAndTombstoneVisibility(t *testing.T) {
	e, tbl := newUserEngine(t)
	w := e.Begin(now())
	e.Insert(w, 1, userRow(1, "alice", 100))
	commitTxn(t, e, w)

	before := e.Begin(now()) // snapshot with the row alive
	d := e.Begin(now())
	if err := e.Delete(d, 1, tbl.Schema.PKKey(userRow(1, "", 0))); err != nil {
		t.Fatal(err)
	}
	commitTxn(t, e, d)

	if _, ok, _ := e.Get(before, 1, tbl.Schema.PKKey(userRow(1, "", 0))); !ok {
		t.Fatal("old snapshot lost the row after a later delete")
	}
	after := e.Begin(now())
	if _, ok, _ := e.Get(after, 1, tbl.Schema.PKKey(userRow(1, "", 0))); ok {
		t.Fatal("deleted row visible to later snapshot")
	}
	// Double delete fails.
	d2 := e.Begin(now())
	if err := e.Delete(d2, 1, tbl.Schema.PKKey(userRow(1, "", 0))); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("second delete err = %v", err)
	}
}

func TestDuplicateKeyInsert(t *testing.T) {
	e, _ := newUserEngine(t)
	w := e.Begin(now())
	e.Insert(w, 1, userRow(1, "alice", 100))
	commitTxn(t, e, w)
	w2 := e.Begin(now())
	if err := e.Insert(w2, 1, userRow(1, "dup", 0)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateMissingRow(t *testing.T) {
	e, _ := newUserEngine(t)
	w := e.Begin(now())
	if err := e.Update(w, 1, userRow(9, "ghost", 0)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestPreparedWaitRule: §IV case 2 — a reader that encounters a PREPARED
// version with prepare_ts <= its snapshot must wait for resolution.
func TestPreparedWaitRule(t *testing.T) {
	e, tbl := newUserEngine(t)
	seed := e.Begin(now())
	e.Insert(seed, 1, userRow(1, "alice", 100))
	commitTxn(t, e, seed)

	writer := e.Begin(now())
	if err := e.Update(writer, 1, userRow(1, "alice", 999)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(writer, testClock, 0, ""); err != nil {
		t.Fatal(err)
	}

	// Pre-mint the commit timestamp, then take the reader snapshot above
	// it: the decided commit_ts will be <= snapshot, so after waiting the
	// reader must see the new value.
	commitTS := advance()
	reader := e.Begin(advance())
	got := make(chan int64, 1)
	go func() {
		row, _, _ := e.Get(reader, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
		got <- row[2].AsInt()
	}()
	select {
	case v := <-got:
		t.Fatalf("reader did not wait for PREPARED txn; read %d", v)
	case <-time.After(50 * time.Millisecond):
	}
	if err := e.Commit(writer, commitTS); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 999 {
			t.Fatalf("reader saw %d after writer commit", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader still blocked after commit")
	}
}

// TestPreparedFastPath: a PREPARED writer whose prepare_ts is already
// above the reader's snapshot cannot become visible, so the reader must
// NOT block (Clock-SI fast path).
func TestPreparedFastPath(t *testing.T) {
	e, tbl := newUserEngine(t)
	seed := e.Begin(now())
	e.Insert(seed, 1, userRow(1, "alice", 100))
	commitTxn(t, e, seed)

	reader := e.Begin(now()) // snapshot taken BEFORE the writer prepares
	writer := e.Begin(now())
	e.Update(writer, 1, userRow(1, "alice", 999))
	e.Prepare(writer, testClock, 0, "") // prepare_ts > reader snapshot

	done := make(chan int64, 1)
	go func() {
		row, _, _ := e.Get(reader, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
		done <- row[2].AsInt()
	}()
	select {
	case v := <-done:
		if v != 100 {
			t.Fatalf("reader saw %d, want pre-write 100", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader blocked on a PREPARED txn it can never see")
	}
	e.Abort(writer)
}

// TestPreparedThenAbortReaderSeesOld: waiting reader re-resolves to the
// old version after the writer aborts.
func TestPreparedThenAbortReaderSeesOld(t *testing.T) {
	e, tbl := newUserEngine(t)
	seed := e.Begin(now())
	e.Insert(seed, 1, userRow(1, "alice", 100))
	commitTxn(t, e, seed)

	writer := e.Begin(now())
	e.Update(writer, 1, userRow(1, "alice", 999))
	e.Prepare(writer, testClock, 0, "")
	reader := e.Begin(advance())
	got := make(chan int64, 1)
	go func() {
		row, _, _ := e.Get(reader, 1, tbl.Schema.PKKey(userRow(1, "", 0)))
		got <- row[2].AsInt()
	}()
	time.Sleep(20 * time.Millisecond)
	e.Abort(writer)
	select {
	case v := <-got:
		if v != 100 {
			t.Fatalf("reader saw %d after abort", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader stuck after abort")
	}
}

func TestScanRangeVisibility(t *testing.T) {
	e, _ := newUserEngine(t)
	w := e.Begin(now())
	for i := int64(0); i < 10; i++ {
		e.Insert(w, 1, userRow(i, fmt.Sprintf("u%d", i), i*10))
	}
	commitTxn(t, e, w)
	// Delete row 5 and update row 6 in a later txn.
	w2 := e.Begin(now())
	e.Delete(w2, 1, types.EncodeKey(nil, types.Int(5)))
	e.Update(w2, 1, userRow(6, "updated", 666))
	commitTxn(t, e, w2)

	r := e.Begin(now())
	var ids []int64
	var bal6 int64
	err := e.ScanRange(r, 1, nil, nil, func(pk []byte, row types.Row) bool {
		ids = append(ids, row[0].AsInt())
		if row[0].AsInt() == 6 {
			bal6 = row[2].AsInt()
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 9 {
		t.Fatalf("scan returned %d rows: %v", len(ids), ids)
	}
	for _, id := range ids {
		if id == 5 {
			t.Fatal("deleted row in scan")
		}
	}
	if bal6 != 666 {
		t.Fatalf("row 6 balance = %d", bal6)
	}
	// Bounded scan [3, 7).
	ids = nil
	e.ScanRange(r, 1, types.EncodeKey(nil, types.Int(3)), types.EncodeKey(nil, types.Int(7)),
		func(_ []byte, row types.Row) bool {
			ids = append(ids, row[0].AsInt())
			return true
		})
	want := []int64{3, 4, 6}
	if len(ids) != len(want) {
		t.Fatalf("bounded scan = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("bounded scan = %v", ids)
		}
	}
}

func TestSecondaryIndexScan(t *testing.T) {
	e, _ := newUserEngine(t)
	w := e.Begin(now())
	e.Insert(w, 1, userRow(1, "carol", 10))
	e.Insert(w, 1, userRow(2, "alice", 20))
	e.Insert(w, 1, userRow(3, "bob", 30))
	commitTxn(t, e, w)

	if _, err := e.CreateIndex(1, "by_name", []string{"name"}); err != nil {
		t.Fatal(err)
	}
	r := e.Begin(now())
	var names []string
	err := e.IndexScan(r, 1, "by_name", nil, nil, func(_ []byte, row types.Row) bool {
		names = append(names, row[1].AsString())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alice" || names[2] != "carol" {
		t.Fatalf("index order = %v", names)
	}

	// Update changes the indexed column: old entry must not yield the row.
	w2 := e.Begin(now())
	e.Update(w2, 1, userRow(2, "zed", 20))
	commitTxn(t, e, w2)
	r2 := e.Begin(now())
	names = nil
	e.IndexScan(r2, 1, "by_name", nil, nil, func(_ []byte, row types.Row) bool {
		names = append(names, row[1].AsString())
		return true
	})
	if len(names) != 3 || names[0] != "bob" || names[2] != "zed" {
		t.Fatalf("post-update index scan = %v", names)
	}
	// Range on the index: names in ["bob", "d").
	names = nil
	e.IndexScan(r2, 1, "by_name",
		types.EncodeKey(nil, types.Str("bob")), types.EncodeKey(nil, types.Str("d")),
		func(_ []byte, row types.Row) bool {
			names = append(names, row[1].AsString())
			return true
		})
	if len(names) != 2 || names[0] != "bob" || names[1] != "carol" {
		t.Fatalf("index range scan = %v", names)
	}
}

func TestIndexScanSkipsUncommitted(t *testing.T) {
	e, _ := newUserEngine(t)
	e.CreateIndex(1, "by_name", []string{"name"})
	w := e.Begin(now())
	e.Insert(w, 1, userRow(1, "alice", 10))
	// Not committed: another txn's index scan must not see it.
	r := e.Begin(now())
	count := 0
	e.IndexScan(r, 1, "by_name", nil, nil, func(_ []byte, _ types.Row) bool {
		count++
		return true
	})
	if count != 0 {
		t.Fatalf("uncommitted row leaked through index: %d", count)
	}
	e.Abort(w)
}

func TestRedoGeneration(t *testing.T) {
	e, _ := newUserEngine(t)
	txn := e.Begin(now())
	e.Insert(txn, 1, userRow(1, "a", 10))
	e.Update(txn, 1, userRow(1, "a", 20))
	e.Delete(txn, 1, types.EncodeKey(nil, types.Int(1)))
	ts := advance()
	e.Commit(txn, ts)
	redo := txn.Redo()
	wantTypes := []wal.RecordType{wal.RecInsert, wal.RecUpdate, wal.RecDelete, wal.RecCommit}
	if len(redo) != len(wantTypes) {
		t.Fatalf("redo = %d records", len(redo))
	}
	for i, w := range wantTypes {
		if redo[i].Type != w {
			t.Fatalf("redo[%d] = %v, want %v", i, redo[i].Type, w)
		}
	}
	if got, err := DecodeTS(redo[3].Payload); err != nil || got != ts {
		t.Fatal("commit record timestamp mismatch")
	}
}

func TestApplierReplaysIntoFreshEngine(t *testing.T) {
	src, _ := newUserEngine(t)
	var allRedo []wal.Record
	for i := int64(0); i < 5; i++ {
		txn := src.Begin(now())
		src.Insert(txn, 1, userRow(i, fmt.Sprintf("u%d", i), i))
		src.Commit(txn, advance())
		allRedo = append(allRedo, txn.Redo()...)
	}
	// Update + delete in one txn.
	txn := src.Begin(now())
	src.Update(txn, 1, userRow(0, "u0", 999))
	src.Delete(txn, 1, types.EncodeKey(nil, types.Int(4)))
	src.Commit(txn, advance())
	allRedo = append(allRedo, txn.Redo()...)

	dst := NewEngine()
	dst.CreateTable(1, 0, usersSchema())
	ap := NewApplier(dst)
	if err := ap.Apply(allRedo); err != nil {
		t.Fatal(err)
	}
	if ap.AppliedTxns() != 6 {
		t.Fatalf("applied %d txns", ap.AppliedTxns())
	}
	if ap.PendingTxns() != 0 {
		t.Fatalf("%d pending txns", ap.PendingTxns())
	}
	r := dst.Begin(hlc.New(1<<45, 0))
	var got []int64
	dst.ScanRange(r, 1, nil, nil, func(_ []byte, row types.Row) bool {
		got = append(got, row[0].AsInt())
		if row[0].AsInt() == 0 && row[2].AsInt() != 999 {
			t.Fatalf("replayed update lost: %v", row)
		}
		return true
	})
	if len(got) != 4 {
		t.Fatalf("replayed rows = %v", got)
	}
}

func TestApplierAtomicTransactionVisibility(t *testing.T) {
	src, _ := newUserEngine(t)
	txn := src.Begin(now())
	src.Insert(txn, 1, userRow(1, "a", 1))
	src.Insert(txn, 1, userRow(2, "b", 2))
	ts := advance()
	src.Commit(txn, ts)
	redo := txn.Redo()

	dst := NewEngine()
	dst.CreateTable(1, 0, usersSchema())
	ap := NewApplier(dst)
	// Apply only the row records (no commit marker yet).
	if err := ap.Apply(redo[:2]); err != nil {
		t.Fatal(err)
	}
	r := dst.Begin(hlc.New(1<<45, 0))
	count := 0
	dst.ScanRange(r, 1, nil, nil, func(_ []byte, _ types.Row) bool { count++; return true })
	if count != 0 {
		t.Fatalf("half-applied txn visible: %d rows", count)
	}
	if err := ap.Apply(redo[2:]); err != nil {
		t.Fatal(err)
	}
	count = 0
	r2 := dst.Begin(hlc.New(1<<45, 0))
	dst.ScanRange(r2, 1, nil, nil, func(_ []byte, _ types.Row) bool { count++; return true })
	if count != 2 {
		t.Fatalf("rows after commit marker = %d", count)
	}
}

// TestApplierPublishesTransactionAtomically: a replica reader at a
// replayed transaction's commit_ts that meets it half installed waits for
// its commit and then sees all of it, where a reader that skipped it
// would read the first rows from before it and the rest from after. The
// replay also finishes while that reader holds the table's B+Tree read
// lock, though it creates a chain for a new key.
func TestApplierPublishesTransactionAtomically(t *testing.T) {
	key := func(id int64) []byte { return types.EncodeKey(nil, types.Int(id)) }
	src, _ := newUserEngine(t)
	seed := src.Begin(now())
	for id := int64(0); id < 4; id++ {
		src.Insert(seed, 1, userRow(id, "r", 0))
	}
	commitTxn(t, src, seed)
	txn := src.Begin(now())
	for id := int64(0); id < 4; id++ {
		src.Update(txn, 1, userRow(id, "r", 1))
	}
	src.Insert(txn, 1, userRow(4, "r", 1))
	commitTS := commitTxn(t, src, txn)

	dst := NewEngine()
	tbl, _ := dst.CreateTable(1, 0, usersSchema())
	ap := NewApplier(dst)
	if err := ap.Apply(seed.Redo()); err != nil {
		t.Fatal(err)
	}

	// Hold row 3's chain, so the replay installs rows 0-2 and stops.
	held := getChain(tbl, key(3), false)
	held.mu.Lock()
	applied := make(chan error, 1)
	go func() { applied <- ap.Apply(txn.Redo()) }()
	first := getChain(tbl, key(0), false)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		first.mu.Lock()
		w := first.head.txn
		first.mu.Unlock()
		if w.Status() != TxnCommitted {
			break
		}
		if time.Now().After(deadline) {
			held.mu.Unlock()
			t.Fatal("the replay never installed row 0")
		}
	}
	scanned := make(chan []int64, 1)
	go func() {
		var vals []int64
		dst.ScanRangeAt(1, key(0), key(3), commitTS, func(_ []byte, row types.Row) bool {
			vals = append(vals, row[2].AsInt())
			return true
		})
		scanned <- vals
	}()
	time.Sleep(20 * time.Millisecond) // the scan meets the half-installed transaction
	held.mu.Unlock()

	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the replay is stuck behind a reader that waits for it")
	}
	if vals := <-scanned; len(vals) != 3 || vals[0] != 1 || vals[1] != 1 || vals[2] != 1 {
		t.Fatalf("rows 0-2 at the replayed commit_ts read %v, want [1 1 1]", vals)
	}
	if row, ok, _ := dst.GetAt(1, key(4), commitTS); !ok || row[2].AsInt() != 1 {
		t.Fatalf("the replayed insert reads %v, %v", row, ok)
	}
}

func TestApplierTenantFilter(t *testing.T) {
	src := NewEngine()
	src.CreateTable(1, 100, usersSchema())
	s2 := types.NewSchema("orders", []types.Column{{Name: "id", Kind: types.KindInt}}, []int{0})
	src.CreateTable(2, 200, s2)

	var redo []wal.Record
	t1 := src.Begin(now())
	src.Insert(t1, 1, userRow(1, "tenant100", 1))
	src.Commit(t1, advance())
	redo = append(redo, t1.Redo()...)
	t2 := src.Begin(now())
	src.Insert(t2, 2, types.Row{types.Int(7)})
	src.Commit(t2, advance())
	redo = append(redo, t2.Redo()...)

	dst := NewEngine()
	dst.CreateTable(1, 100, usersSchema())
	dst.CreateTable(2, 200, s2)
	ap := NewApplier(dst)
	ap.TenantFilter = map[uint32]bool{200: true}
	if err := ap.Apply(redo); err != nil {
		t.Fatal(err)
	}
	r := dst.Begin(hlc.New(1<<45, 0))
	c1, c2 := 0, 0
	dst.ScanRange(r, 1, nil, nil, func(_ []byte, _ types.Row) bool { c1++; return true })
	dst.ScanRange(r, 2, nil, nil, func(_ []byte, _ types.Row) bool { c2++; return true })
	if c1 != 0 || c2 != 1 {
		t.Fatalf("tenant filter: table1=%d table2=%d", c1, c2)
	}
}

func TestVacuumTrimsOldVersions(t *testing.T) {
	e, _ := newUserEngine(t)
	for i := 0; i < 10; i++ {
		txn := e.Begin(now())
		if i == 0 {
			e.Insert(txn, 1, userRow(1, "a", int64(i)))
		} else {
			e.Update(txn, 1, userRow(1, "a", int64(i)))
		}
		e.Commit(txn, advance())
	}
	// A clock reading one window past the last commit: nothing registered
	// pins history, so everything but the newest version goes.
	last := advance()
	freed := e.Vacuum(hlc.New(last.Physical()+VacuumWindow.Milliseconds()+1, 0))
	if freed < 8 {
		t.Fatalf("vacuum freed %d versions", freed)
	}
	// Latest version still readable.
	r := e.Begin(now())
	row, ok, _ := e.Get(r, 1, types.EncodeKey(nil, types.Int(1)))
	if !ok || row[2].AsInt() != 9 {
		t.Fatalf("post-vacuum row = %v", row)
	}
}

func TestBufferPoolFlushBounds(t *testing.T) {
	p := NewBufferPool()
	p.MarkDirty(1, []byte("k1"), 100)
	p.MarkDirty(1, []byte("k2"), 200)
	p.MarkDirty(2, []byte("k3"), 300)
	if p.DirtyCount() != 3 {
		t.Fatalf("DirtyCount = %d", p.DirtyCount())
	}
	if lsn, ok := p.OldestDirtyLSN(); !ok || lsn != 100 {
		t.Fatalf("OldestDirtyLSN = %d, %v", lsn, ok)
	}
	var flushed []PageID
	n, err := p.FlushBefore(250, func(id PageID) error {
		flushed = append(flushed, id)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("FlushBefore = %d, %v", n, err)
	}
	if p.DirtyCount() != 1 {
		t.Fatalf("DirtyCount after flush = %d", p.DirtyCount())
	}
}

func TestBufferPoolFlushTableAndEvict(t *testing.T) {
	p := NewBufferPool()
	p.MarkDirty(1, []byte("a"), 10)
	p.MarkDirty(2, []byte("b"), 20)
	p.MarkDirty(2, []byte("c"), 30)
	n, _ := p.FlushTable(2, nil)
	if n < 1 || p.DirtyCount() > 1 {
		t.Fatalf("FlushTable flushed %d, remaining %d", n, p.DirtyCount())
	}
	p.MarkDirty(3, []byte("d"), 99)
	if evicted := p.EvictAfter(50); evicted != 1 {
		t.Fatalf("EvictAfter = %d", evicted)
	}
}

func TestBufferPoolRedirtyDuringFlushStaysDirty(t *testing.T) {
	p := NewBufferPool()
	p.MarkDirty(1, []byte("a"), 10)
	id := PageOf(1, []byte("a"))
	_, err := p.FlushBefore(50, func(got PageID) error {
		if got == id {
			// Concurrent write re-dirties the page above the limit.
			p.MarkDirty(1, []byte("a"), 100)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.DirtyCount() != 1 {
		t.Fatal("page re-dirtied during flush was lost")
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	e, _ := newUserEngine(t)
	const accounts = 10
	const initial = 100
	seed := e.Begin(now())
	for i := int64(0); i < accounts; i++ {
		e.Insert(seed, 1, userRow(i, fmt.Sprintf("u%d", i), initial))
	}
	commitTxn(t, e, seed)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := int64((w + i) % accounts)
				to := int64((w + i + 1) % accounts)
				txn := e.Begin(testClock.Now())
				fromRow, ok1, _ := e.Get(txn, 1, types.EncodeKey(nil, types.Int(from)))
				toRow, ok2, _ := e.Get(txn, 1, types.EncodeKey(nil, types.Int(to)))
				if !ok1 || !ok2 {
					e.Abort(txn)
					continue
				}
				fr := fromRow.Clone()
				tr := toRow.Clone()
				fr[2] = types.Int(fr[2].AsInt() - 1)
				tr[2] = types.Int(tr[2].AsInt() + 1)
				if err := e.Update(txn, 1, fr); err != nil {
					e.Abort(txn)
					continue
				}
				if err := e.Update(txn, 1, tr); err != nil {
					e.Abort(txn)
					continue
				}
				e.CommitOnePhase(txn, testClock)
			}
		}(w)
	}
	wg.Wait()
	r := e.Begin(testClock.Now())
	var total int64
	e.ScanRange(r, 1, nil, nil, func(_ []byte, row types.Row) bool {
		total += row[2].AsInt()
		return true
	})
	if total != accounts*initial {
		t.Fatalf("money not conserved: total = %d, want %d", total, accounts*initial)
	}
}

func TestTablesOfTenantAndDrop(t *testing.T) {
	e := NewEngine()
	e.CreateTable(1, 7, usersSchema())
	s2 := types.NewSchema("t2", []types.Column{{Name: "id", Kind: types.KindInt}}, []int{0})
	e.CreateTable(2, 7, s2)
	s3 := types.NewSchema("t3", []types.Column{{Name: "id", Kind: types.KindInt}}, []int{0})
	e.CreateTable(3, 8, s3)
	if got := len(e.TablesOfTenant(7)); got != 2 {
		t.Fatalf("tenant 7 tables = %d", got)
	}
	e.DropTable(2)
	if got := len(e.TablesOfTenant(7)); got != 1 {
		t.Fatalf("tenant 7 tables after drop = %d", got)
	}
	if _, err := e.TableByName("t2"); !errors.Is(err, ErrUnknownTable) {
		t.Fatal("dropped table still resolvable")
	}
}

func TestCreateTableDuplicates(t *testing.T) {
	e := NewEngine()
	e.CreateTable(1, 0, usersSchema())
	if _, err := e.CreateTable(1, 0, types.NewSchema("other", nil, nil)); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup id err = %v", err)
	}
	if _, err := e.CreateTable(2, 0, usersSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup name err = %v", err)
	}
}

func TestTxnStateMachine(t *testing.T) {
	e, _ := newUserEngine(t)
	txn := e.Begin(now())
	if txn.Status() != TxnActive {
		t.Fatal("new txn not ACTIVE")
	}
	e.Prepare(txn, testClock, 0, "")
	if txn.Status() != TxnPrepared {
		t.Fatal("not PREPARED")
	}
	// Cannot write after prepare.
	if err := e.Insert(txn, 1, userRow(1, "x", 1)); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("write after prepare err = %v", err)
	}
	// Double prepare fails.
	if _, err := e.Prepare(txn, testClock, 0, ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double prepare err = %v", err)
	}
	e.Commit(txn, advance())
	if txn.Status() != TxnCommitted {
		t.Fatal("not COMMITTED")
	}
	// Commit after commit fails.
	if err := e.Commit(txn, advance()); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double commit err = %v", err)
	}
}

func TestStatusStrings(t *testing.T) {
	if TxnActive.String() != "ACTIVE" || TxnPrepared.String() != "PREPARED" ||
		TxnCommitted.String() != "COMMITTED" || TxnAborted.String() != "ABORTED" {
		t.Fatal("status strings")
	}
}

func BenchmarkInsertCommit(b *testing.B) {
	e := NewEngine()
	e.CreateTable(1, 0, usersSchema())
	clock := hlc.NewClock(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := e.Begin(clock.Now())
		if err := e.Insert(txn, 1, userRow(int64(i), "bench", 1)); err != nil {
			b.Fatal(err)
		}
		e.Commit(txn, clock.Advance())
	}
}

func BenchmarkPointGet(b *testing.B) {
	e := NewEngine()
	e.CreateTable(1, 0, usersSchema())
	clock := hlc.NewClock(nil)
	txn := e.Begin(clock.Now())
	for i := int64(0); i < 10000; i++ {
		e.Insert(txn, 1, userRow(i, "bench", i))
	}
	e.Commit(txn, clock.Advance())
	r := e.Begin(clock.Now())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pk := types.EncodeKey(nil, types.Int(int64(i%10000)))
		if _, ok, _ := e.Get(r, 1, pk); !ok {
			b.Fatal("missing row")
		}
	}
}

// TestWriteSkewIsPermitted documents the isolation level: HLC-SI targets
// snapshot isolation, which — unlike serializability — permits write
// skew. Two transactions each read both rows (sum constraint: a+b >= 0)
// and write DIFFERENT rows; both commit, and the constraint breaks.
// A serializable engine would abort one. If this test starts failing,
// the engine has silently become stronger (or weaker) than SI.
func TestWriteSkewIsPermitted(t *testing.T) {
	e, _ := newUserEngine(t)
	seed := e.Begin(now())
	e.Insert(seed, 1, userRow(1, "a", 50))
	e.Insert(seed, 1, userRow(2, "b", 50))
	commitTxn(t, e, seed)

	t1 := e.Begin(now())
	t2 := e.Begin(now())
	// Both check the invariant on the same snapshot...
	r1a, _, _ := e.Get(t1, 1, types.EncodeKey(nil, types.Int(1)))
	r1b, _, _ := e.Get(t1, 1, types.EncodeKey(nil, types.Int(2)))
	r2a, _, _ := e.Get(t2, 1, types.EncodeKey(nil, types.Int(1)))
	r2b, _, _ := e.Get(t2, 1, types.EncodeKey(nil, types.Int(2)))
	if r1a[2].AsInt()+r1b[2].AsInt() < 0 || r2a[2].AsInt()+r2b[2].AsInt() < 0 {
		t.Fatal("setup broken")
	}
	// ...and each withdraws from a different row (no write-write
	// conflict under SI's first-committer-wins).
	if err := e.Update(t1, 1, userRow(1, "a", -60)); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(t2, 1, userRow(2, "b", -60)); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t1, advance()); err != nil {
		t.Fatalf("SI should admit t1: %v", err)
	}
	if err := e.Commit(t2, advance()); err != nil {
		t.Fatalf("SI should admit t2 (write skew): %v", err)
	}
	r := e.Begin(now())
	a, _, _ := e.Get(r, 1, types.EncodeKey(nil, types.Int(1)))
	b, _, _ := e.Get(r, 1, types.EncodeKey(nil, types.Int(2)))
	if a[2].AsInt()+b[2].AsInt() >= 0 {
		t.Fatalf("expected the constraint to break under SI write skew; sum = %d",
			a[2].AsInt()+b[2].AsInt())
	}
}
