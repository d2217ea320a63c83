package dn

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// TestSnapshotReadOpensNoBranch: a read with no transaction is answered
// at its snapshot and leaves nothing behind on the leader — no branch, no
// pinned snapshot — while still counting as a served multi-get. Writes
// need a branch, and a node that keeps no column index refuses a pushed
// aggregate instead of answering with raw rows.
func TestSnapshotReadOpensNoBranch(t *testing.T) {
	inst, cl, net := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	if _, err := inst.AddRO("dn1-ro1"); err != nil {
		t.Fatal(err)
	}
	resp := cl.commitRows(t, "dn1", inst.Clock().Now(), userRow(1, "a", 1), userRow(2, "b", 2))
	_, gets0, _, _ := inst.RPCStats()

	if rr := cl.snapGet(t, "dn1", inst.Clock().Now(), 0, pkOf(2)); !rr.OK || rr.Row[1].AsString() != "b" {
		t.Fatalf("snapshot multi-get = %+v", rr)
	}
	sr := cl.call(t, "dn1", ScanReq{SnapshotTS: inst.Clock().Now(), Table: 1, WantBatch: true}).(ScanResp)
	if sr.Batch == nil || sr.Batch.NumRows() != 2 {
		t.Fatalf("snapshot scan = %+v", sr)
	}
	if n := inst.OpenBranches(); n != 0 {
		t.Fatalf("snapshot reads left %d branches open", n)
	}
	if ts, ok := inst.Engine().OldestSnapshot(); ok {
		t.Fatalf("snapshot reads left snapshot %v registered", ts)
	}
	if _, gets, _, _ := inst.RPCStats(); gets != gets0+1 {
		t.Fatalf("RPCStats multi-gets moved %d -> %d, want one more", gets0, gets)
	}

	refused := func(to string, msg any, want error) {
		t.Helper()
		_, err := net.Call(cl.name, to, msg)
		if err == nil || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("%T to %s: err = %v, want refusal %v", msg, to, err, want)
		}
	}
	refused("dn1", MultiWriteReq{SnapshotTS: inst.Clock().Now(), Writes: inserts(userRow(3, "c", 3))}, nil)
	agg := &PushAgg{Aggs: []PushAggSpec{{Func: "COUNT", Star: true}}}
	refused("dn1", ScanReq{SnapshotTS: inst.Clock().Now(), Table: 1, Aggregate: agg}, ErrNoColumnIndex)
	refused("dn1-ro1", ScanReq{SnapshotTS: inst.Clock().Now(), MinLSN: resp.LSN, Table: 1,
		UseColumnIndex: true, Aggregate: agg}, ErrNoColumnIndex)
	refused("dn1-ro1", MultiGetReq{TxnID: nextTxnID(), SnapshotTS: inst.Clock().Now(),
		Gets: []PointGet{{Table: 1, PK: pkOf(1)}}}, nil)
}

// TestReadOlderThanWindowIsRightOrTooOld: once a node's clock is a vacuum
// window past an overwrite, a read at a snapshot from before it returns
// the old row or fails with storage.ErrSnapshotTooOld — never the trimmed
// state, in which the row looks absent — on the leader and on a replica.
func TestReadOlderThanWindowIsRightOrTooOld(t *testing.T) {
	inst, cl, net := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}
	before := cl.commitRows(t, "dn1", inst.Clock().Now(), userRow(1, "old", 1)).CommitTS
	u := nextTxnID()
	cl.call(t, "dn1", MultiWriteReq{TxnID: u, SnapshotTS: inst.Clock().Now(),
		Writes: []WriteItem{{Table: 1, Op: OpUpdate, Row: userRow(1, "new", 2)}}})
	lsn := cl.call(t, "dn1", CommitReq{TxnID: u}).(CommitResp).LSN

	for _, node := range []struct {
		name   string
		eng    *storage.Engine
		vacuum func() int
	}{
		{"dn1", inst.Engine(), inst.vacuum},
		{"dn1-ro1", ro.Engine(), ro.vacuum},
	} {
		// Move the node's clock a window ahead with a read, then vacuum.
		if rr := cl.snapGet(t, node.name, windowAhead(inst.Clock().Now()), lsn, pkOf(1)); rr.Row[1].AsString() != "new" {
			t.Fatalf("%s: current read = %+v", node.name, rr)
		}
		if freed := node.vacuum(); freed == 0 {
			t.Fatalf("%s: vacuum freed nothing", node.name)
		}
		row, ok, err := node.eng.GetAt(1, pkOf(1), before)
		switch {
		case errors.Is(err, storage.ErrSnapshotTooOld):
		case err != nil:
			t.Fatalf("%s: GetAt: %v", node.name, err)
		case !ok || row[1].AsString() != "old":
			t.Fatalf("%s: read at %v = %v (found %v): trimmed history served", node.name, before, row, ok)
		}
		_, err = net.Call(cl.name, node.name, MultiGetReq{SnapshotTS: before, MinLSN: lsn,
			Gets: []PointGet{{Table: 1, PK: pkOf(1)}}})
		if !errors.Is(err, storage.ErrSnapshotTooOld) {
			t.Fatalf("%s: snapshot read below the horizon: err = %v, want ErrSnapshotTooOld", node.name, err)
		}
	}
}
