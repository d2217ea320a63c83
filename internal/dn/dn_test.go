package dn

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/paxos"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

func usersSchema() *types.Schema {
	return types.NewSchema("users", []types.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
		{Name: "balance", Kind: types.KindInt},
	}, []int{0})
}

func userRow(id int64, name string, bal int64) types.Row {
	return types.Row{types.Int(id), types.Str(name), types.Int(bal)}
}

func pkOf(id int64) []byte { return types.EncodeKey(nil, types.Int(id)) }

// client is a minimal CN stand-in driving DN RPCs.
type client struct {
	net  *simnet.Network
	name string
}

func newClient(t *testing.T, net *simnet.Network, name string, dc simnet.DC) *client {
	t.Helper()
	net.Register(name, dc, func(string, any) (any, error) { return nil, nil })
	return &client{net: net, name: name}
}

func (c *client) call(t *testing.T, to string, msg any) any {
	t.Helper()
	reply, err := c.net.Call(c.name, to, msg)
	if err != nil {
		t.Fatalf("call %T to %s: %v", msg, to, err)
	}
	return reply
}

// inserts stages rows of table 1 as one batched write.
func inserts(rows ...types.Row) []WriteItem {
	out := make([]WriteItem, len(rows))
	for k, r := range rows {
		out[k] = WriteItem{Table: 1, Op: OpInsert, Row: r}
	}
	return out
}

// commitRows inserts rows in a fresh branch, opened by the write itself
// at snap, and commits it one-phase.
func (c *client) commitRows(t *testing.T, to string, snap hlc.Timestamp, rows ...types.Row) CommitResp {
	t.Helper()
	w := nextTxnID()
	c.call(t, to, MultiWriteReq{TxnID: w, SnapshotTS: snap, Writes: inserts(rows...)})
	return c.call(t, to, CommitReq{TxnID: w}).(CommitResp)
}

// get reads one key of table 1 in branch txnID, opening it at snap on
// first contact.
func (c *client) get(t *testing.T, to string, txnID uint64, snap hlc.Timestamp, pk []byte) ReadResp {
	t.Helper()
	return c.call(t, to, MultiGetReq{TxnID: txnID, SnapshotTS: snap,
		Gets: []PointGet{{Table: 1, PK: pk}}}).(MultiGetResp).Results[0]
}

// snapGet reads one key of table 1 at snap with no branch, on a leader or
// on an RO replica once it has applied redo up to minLSN.
func (c *client) snapGet(t *testing.T, to string, snap hlc.Timestamp, minLSN wal.LSN, pk []byte) ReadResp {
	t.Helper()
	return c.call(t, to, MultiGetReq{Gets: []PointGet{{Table: 1, PK: pk}},
		SnapshotTS: snap, MinLSN: minLSN}).(MultiGetResp).Results[0]
}

// singleInstance builds a 1-member DN group.
func singleInstance(t *testing.T) (*Instance, *client, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.ZeroTopology())
	inst, err := NewInstance(Config{
		Name: "dn1", DC: simnet.DC1, Net: net,
		Group:   "g1",
		Members: []paxos.Member{{Name: "dn1", DC: simnet.DC1}},

		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Stop)
	cl := newClient(t, net, "cn1", simnet.DC1)
	return inst, cl, net
}

var txnSeq uint64 = 1000

func nextTxnID() uint64 { txnSeq++; return txnSeq }

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSingleInstanceWriteCommitRead(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	clock := hlc.NewClock(nil)
	resp := cl.commitRows(t, "dn1", clock.Now(), userRow(1, "alice", 100))
	if resp.CommitTS.IsZero() {
		t.Fatal("1PC commit did not choose a timestamp")
	}

	rID := nextTxnID()
	rr := cl.get(t, "dn1", rID, inst.Clock().Now(), pkOf(1))
	if !rr.OK || rr.Row[1].AsString() != "alice" {
		t.Fatalf("read = %+v", rr)
	}
	cl.call(t, "dn1", AbortReq{TxnID: rID})
}

func TestTwoPhaseCommitFlow(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	clock := hlc.NewClock(nil)
	snapshot := clock.Now()
	txnID := nextTxnID()
	cl.call(t, "dn1", MultiWriteReq{TxnID: txnID, SnapshotTS: snapshot, Writes: inserts(userRow(1, "a", 1))})
	prep := cl.call(t, "dn1", PrepareReq{TxnID: txnID}).(PrepareResp)
	if prep.PrepareTS <= snapshot {
		t.Fatalf("prepare_ts %v <= snapshot %v: HLC update rule broken", prep.PrepareTS, snapshot)
	}
	commitTS := prep.PrepareTS // coordinator takes the max (single participant)
	cl.call(t, "dn1", CommitReq{TxnID: txnID, CommitTS: commitTS})

	rID := nextTxnID()
	if rr := cl.get(t, "dn1", rID, inst.Clock().Now(), pkOf(1)); !rr.OK {
		t.Fatal("2PC-committed row invisible")
	}
	cl.call(t, "dn1", AbortReq{TxnID: rID})
}

func TestAbortDiscardsBranch(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	clock := hlc.NewClock(nil)
	txnID := nextTxnID()
	cl.call(t, "dn1", MultiWriteReq{TxnID: txnID, SnapshotTS: clock.Now(), Writes: inserts(userRow(1, "a", 1))})
	cl.call(t, "dn1", AbortReq{TxnID: txnID})

	if rr := cl.get(t, "dn1", nextTxnID(), inst.Clock().Now(), pkOf(1)); rr.OK {
		t.Fatal("aborted write visible")
	}
	// Branch is gone: prepare needs an open one.
	if _, err := cl.net.Call(cl.name, "dn1", PrepareReq{TxnID: txnID}); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("prepare on aborted branch: err = %v", err)
	}
}

// TestUnknownBranchErrors: every in-branch request opens its branch on
// first contact, so the requests that refuse an unknown branch are the
// 2PC ones, which need a branch an earlier request opened.
func TestUnknownBranchErrors(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	for _, msg := range []any{PrepareReq{TxnID: 999999}, CommitReq{TxnID: 999999}} {
		if _, err := cl.net.Call(cl.name, "dn1", msg); !errors.Is(err, ErrUnknownTxn) {
			t.Fatalf("%T: err = %v", msg, err)
		}
	}
}

func TestScanThroughRPC(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	var rows []types.Row
	for i := int64(0); i < 20; i++ {
		rows = append(rows, userRow(i, fmt.Sprintf("u%d", i), i))
	}
	cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), rows...)

	// The scan is its branch's first contact: it carries the snapshot.
	r := nextTxnID()
	sr := cl.call(t, "dn1", ScanReq{TxnID: r, SnapshotTS: inst.Clock().Now(), Table: 1,
		Start: pkOf(5), End: pkOf(15), Limit: 5}).(ScanResp)
	if len(sr.Rows) != 5 || sr.Rows[0][0].AsInt() != 5 {
		t.Fatalf("scan = %d rows, first %v", len(sr.Rows), sr.Rows[0])
	}
	cl.call(t, "dn1", AbortReq{TxnID: r})
}

func TestROServesReadsWithSessionConsistency(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}
	resp := cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), userRow(1, "alice", 100))

	// Session-consistent read: MinLSN = the commit's LSN forces the RO to
	// wait until it has applied our write.
	rr := cl.snapGet(t, "dn1-ro1", inst.Clock().Now(), resp.LSN, pkOf(1))
	if !rr.OK || rr.Row[2].AsInt() != 100 {
		t.Fatalf("RO read = %+v", rr)
	}
	if ro.AppliedLSN() < resp.LSN {
		t.Fatal("RO applied LSN below the write it served")
	}
}

func TestROScan(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	inst.AddRO("dn1-ro1")
	var rows []types.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, userRow(i, "u", i))
	}
	resp := cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), rows...)

	sr := cl.call(t, "dn1-ro1", ScanReq{
		Table: 1, SnapshotTS: inst.Clock().Now(), MinLSN: resp.LSN,
	}).(ScanResp)
	if len(sr.Rows) != 10 {
		t.Fatalf("RO scan = %d rows", len(sr.Rows))
	}
}

func TestROAddedAfterDataStillCatchesUp(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	resp := cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), userRow(1, "early", 1))

	// RO added after the write: it must replay from the log base.
	inst.AddRO("dn1-ro-late")
	rr := cl.snapGet(t, "dn1-ro-late", inst.Clock().Now(), resp.LSN, pkOf(1))
	if !rr.OK || rr.Row[1].AsString() != "early" {
		t.Fatalf("late RO read = %+v", rr)
	}
}

func TestLaggingROEviction(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	inst, err := NewInstance(Config{
		Name: "dn1", DC: simnet.DC1, Net: net,
		Group: "g1", Members: []paxos.Member{{Name: "dn1", DC: simnet.DC1}},
		Bootstrap:  true,
		ROLagLimit: 512, // tiny limit so the test trips it fast
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	cl := newClient(t, net, "cn1", simnet.DC1)
	inst.CreateTable(1, 0, usersSchema())
	ro, _ := inst.AddRO("dn1-ro1")
	ro.SetApplyDelay(200 * time.Millisecond) // severe lag

	clock := hlc.NewClock(nil)
	for i := int64(0); i < 50; i++ {
		cl.commitRows(t, "dn1", clock.Now(), userRow(i, strings.Repeat("x", 100), i))
	}
	waitFor(t, 5*time.Second, "RO eviction", func() bool {
		return len(inst.EvictedROs()) == 1
	})
}

func TestMultiDCReplicationAndFollowerRO(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	members := []paxos.Member{
		{Name: "dn-dc1", DC: simnet.DC1},
		{Name: "dn-dc2", DC: simnet.DC2},
		{Name: "dn-dc3", DC: simnet.DC3},
	}
	var insts []*Instance
	for idx, m := range members {
		inst, err := NewInstance(Config{
			Name: m.Name, DC: m.DC, Net: net,
			Group: "g1", Members: members,
			Bootstrap: idx == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Stop()
		insts = append(insts, inst)
	}
	leader := insts[0]
	cl := newClient(t, net, "cn1", simnet.DC1)
	if err := leader.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	// DDL reaches followers.
	waitFor(t, 2*time.Second, "DDL replication", func() bool {
		_, err2 := insts[1].Engine().TableByName("users")
		_, err3 := insts[2].Engine().TableByName("users")
		return err2 == nil && err3 == nil
	})

	// Follower RO created before data.
	insts[1].AddRO("dn-dc2-ro1")

	clock := hlc.NewClock(nil)
	resp := cl.commitRows(t, "dn-dc1", clock.Now(), userRow(1, "geo", 42))

	// Follower engines converge.
	for _, f := range insts[1:] {
		f := f
		waitFor(t, 2*time.Second, "follower apply on "+f.Name(), func() bool {
			row, ok, _ := f.Engine().GetAt(1, pkOf(1), f.Clock().Now())
			return ok && row[2].AsInt() == 42
		})
	}
	// The follower's RO serves the row (reads in remote DCs without
	// crossing DC boundaries — the §II-A locality claim).
	rr := cl.snapGet(t, "dn-dc2-ro1", leader.Clock().Now(), resp.LSN, pkOf(1))
	if !rr.OK || rr.Row[1].AsString() != "geo" {
		t.Fatalf("follower RO read = %+v", rr)
	}
	// Followers refuse to open branches.
	if _, err := insts[1].branchOrBegin(nextTxnID(), clock.Now()); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower branch open err = %v", err)
	}
}

func TestWriteConflictSurfacesThroughRPC(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), userRow(1, "a", 1))

	t1, t2 := nextTxnID(), nextTxnID()
	snap := inst.Clock().Now()
	update := func(bal int64) []WriteItem { return []WriteItem{{Table: 1, Op: OpUpdate, Row: userRow(1, "a", bal)}} }
	cl.call(t, "dn1", MultiWriteReq{TxnID: t1, SnapshotTS: snap, Writes: update(2)})
	_, err := cl.net.Call(cl.name, "dn1", MultiWriteReq{TxnID: t2, SnapshotTS: snap, Writes: update(3)})
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("err = %v", err)
	}
	cl.call(t, "dn1", CommitReq{TxnID: t1})
	cl.call(t, "dn1", AbortReq{TxnID: t2})
}

func TestStatusSurface(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	inst.AddRO("dn1-ro1")
	st := cl.call(t, "dn1", StatusReq{}).(StatusResp)
	if !st.IsLeader || st.Name != "dn1" || len(st.ROs) != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestCreateIndexReplicatedToROs(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	ro, _ := inst.AddRO("dn1-ro1")
	if err := inst.CreateIndex(1, "by_name", []string{"name"}); err != nil {
		t.Fatal(err)
	}
	resp := cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), userRow(1, "zoe", 5))
	cl.snapGet(t, "dn1-ro1", inst.Clock().Now(), resp.LSN, pkOf(1)) // applied up to the write
	// The replica's engine maintains the index from the redo it applies.
	eng := ro.Engine()
	r := eng.Begin(inst.Clock().Now())
	defer eng.Abort(r)
	var rows []types.Row
	err := eng.IndexScan(r, 1, "by_name", nil, nil, func(_ []byte, row types.Row) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil || len(rows) != 1 || rows[0][1].AsString() != "zoe" {
		t.Fatalf("RO index scan = %v, %v", rows, err)
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	s := usersSchema()
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Columns) != len(s.Columns) ||
		got.PKCols[0] != s.PKCols[0] || got.ImplicitPK != s.ImplicitPK {
		t.Fatalf("schema round trip: %+v", got)
	}
	implicit := types.NewSchema("t", []types.Column{{Name: "a", Kind: types.KindInt}}, nil)
	got2, _ := DecodeSchema(EncodeSchema(implicit))
	if !got2.ImplicitPK || got2.ColIndex(types.ImplicitPKName) < 0 {
		t.Fatal("implicit PK lost in codec")
	}
	if _, err := DecodeSchema([]byte("not json")); err == nil {
		t.Fatal("bad schema payload should error")
	}
}

func TestMinROAckBoundsLogPurge(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	inst.AddRO("dn1-ro1")
	clock := hlc.NewClock(nil)
	var lastLSN wal.LSN
	for i := int64(0); i < 5; i++ {
		lastLSN = cl.commitRows(t, "dn1", clock.Now(), userRow(i, "x", i)).LSN
	}
	waitFor(t, 2*time.Second, "RO ack convergence", func() bool {
		return inst.MinROAck() >= lastLSN
	})
}

func TestROColumnIndexScanAndAggPushdown(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.EnableColumnIndex([]uint32{1}, 1); err != nil {
		t.Fatal(err)
	}
	clock := hlc.NewClock(nil)
	var last wal.LSN
	for i := int64(0); i < 20; i++ {
		last = cl.commitRows(t, "dn1", clock.Now(), userRow(i, "u", i*10)).LSN
	}
	// Plain column-index scan.
	sr := cl.call(t, "dn1-ro1", ScanReq{
		Table: 1, SnapshotTS: inst.Clock().Now(), MinLSN: last, UseColumnIndex: true,
	}).(ScanResp)
	if len(sr.Rows) != 20 {
		t.Fatalf("colindex scan = %d rows", len(sr.Rows))
	}
	// Pushed-down aggregation: SUM(balance), COUNT(*).
	ar := cl.call(t, "dn1-ro1", ScanReq{
		Table: 1, SnapshotTS: inst.Clock().Now(), MinLSN: last, UseColumnIndex: true,
		Aggregate: &PushAgg{Aggs: []PushAggSpec{
			{Func: "SUM", Col: 2}, {Func: "COUNT", Star: true},
		}},
	}).(ScanResp)
	if len(ar.Rows) != 1 {
		t.Fatalf("agg rows = %d", len(ar.Rows))
	}
	if ar.Rows[0][0].AsInt() != 1900 || ar.Rows[0][1].AsInt() != 20 {
		t.Fatalf("pushed agg = %v", ar.Rows[0])
	}
}

func TestROColumnIndexBackfillExistingData(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	last := cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), userRow(1, "pre", 7)).LSN

	ro, _ := inst.AddRO("dn1-ro1")
	// Wait for the replica to apply, then enable with backfill.
	cl.snapGet(t, "dn1-ro1", inst.Clock().Now(), last, pkOf(1))
	if err := ro.EnableColumnIndex([]uint32{1}, 1); err != nil {
		t.Fatal(err)
	}
	sr := cl.call(t, "dn1-ro1", ScanReq{
		Table: 1, SnapshotTS: inst.Clock().Now(), MinLSN: last, UseColumnIndex: true,
	}).(ScanResp)
	if len(sr.Rows) != 1 || sr.Rows[0][1].AsString() != "pre" {
		t.Fatalf("backfilled scan = %v", sr.Rows)
	}
}

func TestRedoPurgeAfterConsumersCatchUp(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	inst.AddRO("dn1-ro1")
	clock := hlc.NewClock(nil)
	var last wal.LSN
	for i := int64(0); i < 30; i++ {
		last = cl.commitRows(t, "dn1", clock.Now(), userRow(i, strings.Repeat("p", 64), i)).LSN
	}
	// Once the RO has applied everything and pages are flushed, the
	// flusher loop purges the redo prefix (§II-C step 8).
	waitFor(t, 5*time.Second, "redo purge", func() bool {
		return inst.Paxos().Log().BaseLSN() >= last/2 // most of the log gone
	})
	// The system still works after purging: reads, writes, RO reads.
	resp := cl.commitRows(t, "dn1", clock.Now(), userRow(100, "post", 1))
	rr := cl.snapGet(t, "dn1-ro1", inst.Clock().Now(), resp.LSN, pkOf(100))
	if !rr.OK || rr.Row[1].AsString() != "post" {
		t.Fatalf("post-purge RO read = %+v", rr)
	}
}

func TestBackgroundVacuumTrimsVersions(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	// Overwrite one row many times; vacuum (with no open snapshot pinning
	// history) reclaims the chain.
	first := cl.commitRows(t, "dn1", hlc.NewClock(nil).Now(), userRow(1, "v", 0)).CommitTS
	for i := int64(1); i <= 50; i++ {
		u := nextTxnID()
		cl.call(t, "dn1", MultiWriteReq{TxnID: u, SnapshotTS: inst.Clock().Now(),
			Writes: []WriteItem{{Table: 1, Op: OpUpdate, Row: userRow(1, "v", i)}}})
		cl.call(t, "dn1", CommitReq{TxnID: u})
	}
	// A snapshot read one window ahead moves the DN clock past the
	// window (HLC Update), so the flusher's vacuum step may trim every
	// overwritten version.
	cl.snapGet(t, "dn1", windowAhead(inst.Clock().Now()), 0, pkOf(1))
	inst.vacuum()
	if _, _, err := inst.Engine().GetAt(1, pkOf(1), first); !errors.Is(err, storage.ErrSnapshotTooOld) {
		t.Fatalf("read below the vacuum horizon: err = %v, want ErrSnapshotTooOld", err)
	}
	// The row remains readable at its newest version.
	row, ok, err := inst.Engine().GetAt(1, pkOf(1), inst.Clock().Now())
	if err != nil || !ok || row[2].AsInt() != 50 {
		t.Fatalf("newest version = %v, %v, %v", row, ok, err)
	}
}

// windowAhead is a timestamp one vacuum window past ts.
func windowAhead(ts hlc.Timestamp) hlc.Timestamp {
	return hlc.New(ts.Physical()+storage.VacuumWindow.Milliseconds()+1, 0)
}

// TestRONeverServesUndurableData: RO replicas only consume redo below
// the group DLSN (§III): data proposed by a leader that cannot reach a
// majority must never become visible on an RO, because a re-election
// could truncate it.
func TestRONeverServesUndurableData(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	members := []paxos.Member{
		{Name: "dn-a", DC: simnet.DC1},
		{Name: "dn-b", DC: simnet.DC2},
		{Name: "dn-c", DC: simnet.DC3},
	}
	var insts []*Instance
	for i, m := range members {
		inst, err := NewInstance(Config{
			Name: m.Name, DC: m.DC, Net: net,
			Group: "gu", Members: members, Bootstrap: i == 0,
			ElectionTimeout: 10 * time.Second, // keep the leader stable
		})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Stop()
		insts = append(insts, inst)
	}
	leader := insts[0]
	if err := leader.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	ro, err := leader.AddRO("dn-a-ro")
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "cnu", simnet.DC1)

	// A durable write reaches the RO.
	resp := cl.commitRows(t, "dn-a", hlc.NewClock(nil).Now(), userRow(1, "durable", 1))
	if rr := cl.snapGet(t, "dn-a-ro", leader.Clock().Now(), resp.LSN, pkOf(1)); !rr.OK {
		t.Fatal("durable write not on RO")
	}
	durableLSN := ro.AppliedLSN()

	// Cut the leader off from its followers; propose without waiting.
	net.SetDown("gu/dn-b", true)
	net.SetDown("gu/dn-c", true)
	if _, err := leader.Paxos().Propose(wal.Record{
		Type: wal.RecInsert, TableID: 1, TxnID: 999999,
		Key: pkOf(2), Payload: nil,
	}); err != nil {
		t.Fatal(err)
	}
	// Give the RO shipper time to (incorrectly) ship if it were going to.
	time.Sleep(100 * time.Millisecond)
	if got := ro.AppliedLSN(); got != durableLSN {
		t.Fatalf("RO advanced past DLSN: %d > %d", got, durableLSN)
	}
}
