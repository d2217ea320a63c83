package txn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dn"
	"repro/internal/hlc"
	"repro/internal/paxos"
	"repro/internal/simnet"
	"repro/internal/tso"
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

// put applies one table-1 mutation on dnName as a batched write.
func put(tx *Tx, dnName string, op dn.WriteOp, row types.Row) error {
	return tx.MultiWrite(dnName, []dn.WriteItem{{Table: 1, Op: op, Row: row}})
}

// get reads one table-1 row by id on dnName as a batched read.
func get(tx *Tx, dnName string, id int64) (types.Row, bool, error) {
	rs, err := tx.MultiGet(dnName, []dn.PointGet{{Table: 1, PK: pkOf(id)}})
	if err != nil {
		return nil, false, err
	}
	return rs[0].Row, rs[0].OK, nil
}

// cluster is a test fixture: n single-member DN groups plus a CN endpoint.
type cluster struct {
	net  *simnet.Network
	dns  []*dn.Instance
	name []string
}

func newCluster(t *testing.T, n int, topo simnet.Topology) *cluster {
	t.Helper()
	c := &cluster{net: simnet.New(topo)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dn%d", i+1)
		inst, err := dn.NewInstance(dn.Config{
			Name: name, DC: simnet.DC(i % 3), Net: c.net,
			Group:     "g-" + name,
			Members:   []paxos.Member{{Name: name, DC: simnet.DC(i % 3)}},
			Bootstrap: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Stop)
		if err := inst.CreateTable(1, 0, usersSchema()); err != nil {
			t.Fatal(err)
		}
		c.dns = append(c.dns, inst)
		c.name = append(c.name, name)
	}
	c.net.Register("cn1", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	return c
}

func hlcCoord(c *cluster) *Coordinator {
	return NewCoordinator(c.net, "cn1", NewHLCOracle(hlc.NewClock(nil)))
}

func TestDistributedCommitAtomicVisibility(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)

	tx, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := put(tx, "dn1", dn.OpInsert, userRow(1, "alice", 100)); err != nil {
		t.Fatal(err)
	}
	if err := put(tx, "dn2", dn.OpInsert, userRow(2, "bob", 200)); err != nil {
		t.Fatal(err)
	}
	commitTS, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commitTS <= tx.Snapshot {
		t.Fatalf("commit_ts %v <= snapshot %v", commitTS, tx.Snapshot)
	}

	// Both rows visible in a new transaction from the same coordinator
	// (read-your-writes via Observe).
	tx2, _ := coord.Begin()
	if tx2.Snapshot < commitTS {
		t.Fatalf("next snapshot %v below prior commit %v", tx2.Snapshot, commitTS)
	}
	r1, ok1, _ := get(tx2, "dn1", 1)
	r2, ok2, _ := get(tx2, "dn2", 2)
	if !ok1 || !ok2 {
		t.Fatalf("committed rows invisible: %v %v", ok1, ok2)
	}
	if r1[1].AsString() != "alice" || r2[1].AsString() != "bob" {
		t.Fatalf("rows = %v, %v", r1, r2)
	}
	tx2.Abort()
}

func TestSnapshotDoesNotSeeConcurrentCommit(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)

	seed, _ := coord.Begin()
	put(seed, "dn1", dn.OpInsert, userRow(1, "a", 10))
	put(seed, "dn2", dn.OpInsert, userRow(2, "b", 20))
	seed.Commit()

	reader, _ := coord.Begin() // snapshot before the writer commits
	writer, _ := coord.Begin()
	put(writer, "dn1", dn.OpUpdate, userRow(1, "a", 11))
	put(writer, "dn2", dn.OpUpdate, userRow(2, "b", 21))
	if _, err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	r1, _, _ := get(reader, "dn1", 1)
	r2, _, _ := get(reader, "dn2", 2)
	if r1[2].AsInt() != 10 || r2[2].AsInt() != 20 {
		t.Fatalf("reader saw torn/late values: %v %v", r1, r2)
	}
	reader.Abort()
}

func TestSinglePCFastPath(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)
	tx, _ := coord.Begin()
	put(tx, "dn1", dn.OpInsert, userRow(1, "solo", 1))
	commitTS, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commitTS.IsZero() {
		t.Fatal("1PC returned zero commit timestamp")
	}
	// Next snapshot from this CN covers the commit.
	tx2, _ := coord.Begin()
	if _, ok, _ := get(tx2, "dn1", 1); !ok {
		t.Fatal("1PC row invisible to next txn")
	}
	tx2.Abort()
}

func TestReadOnlyTransactionCommitsWithoutPrepare(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)
	seed, _ := coord.Begin()
	put(seed, "dn1", dn.OpInsert, userRow(1, "a", 1))
	seed.Commit()

	ro, _ := coord.Begin()
	if _, ok, _ := get(ro, "dn1", 1); !ok {
		t.Fatal("read failed")
	}
	if _, err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareFailureAbortsEverywhere(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)
	seed, _ := coord.Begin()
	put(seed, "dn1", dn.OpInsert, userRow(1, "a", 1))
	put(seed, "dn2", dn.OpInsert, userRow(2, "b", 2))
	seed.Commit()

	tx, _ := coord.Begin()
	put(tx, "dn1", dn.OpUpdate, userRow(1, "a", 100))
	put(tx, "dn2", dn.OpUpdate, userRow(2, "b", 200))
	// Kill dn2 before commit: prepare there must fail, and the whole
	// transaction must roll back on dn1 too.
	c.net.SetDown("dn2", true)
	if _, err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit err = %v", err)
	}
	c.net.SetDown("dn2", false)

	check, _ := coord.Begin()
	r1, _, _ := get(check, "dn1", 1)
	if r1[2].AsInt() != 1 {
		t.Fatalf("dn1 kept aborted write: %v", r1)
	}
	check.Abort()
}

func TestWriteConflictAborts(t *testing.T) {
	c := newCluster(t, 1, simnet.ZeroTopology())
	coord := hlcCoord(c)
	seed, _ := coord.Begin()
	put(seed, "dn1", dn.OpInsert, userRow(1, "a", 1))
	seed.Commit()

	t1, _ := coord.Begin()
	t2, _ := coord.Begin()
	if err := put(t1, "dn1", dn.OpUpdate, userRow(1, "a", 2)); err != nil {
		t.Fatal(err)
	}
	err := put(t2, "dn1", dn.OpUpdate, userRow(1, "a", 3))
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("err = %v", err)
	}
	t2.Abort()
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleCommitAndUseAfterDone(t *testing.T) {
	c := newCluster(t, 1, simnet.ZeroTopology())
	coord := hlcCoord(c)
	tx, _ := coord.Begin()
	put(tx, "dn1", dn.OpInsert, userRow(1, "a", 1))
	tx.Commit()
	if _, err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := put(tx, "dn1", dn.OpInsert, userRow(9, "x", 1)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("write after commit err = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("abort after commit err = %v", err)
	}
}

func TestTSOOracleEndToEnd(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	tso.NewServer(c.net, "tso", simnet.DC1)
	coord := NewCoordinator(c.net, "cn1", NewTSOOracle(tso.NewClient(c.net, "cn1", "tso")))

	tx, _ := coord.Begin()
	put(tx, "dn1", dn.OpInsert, userRow(1, "a", 1))
	put(tx, "dn2", dn.OpInsert, userRow(2, "b", 2))
	commitTS, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commitTS <= tx.Snapshot {
		t.Fatal("TSO commit_ts not above snapshot")
	}
	// TSO paid round trips: one snapshot + one commit grant (2 calls),
	// plus the earlier Begin... at least 2 messages hit the server.
	if got := c.net.MessageCount("tso"); got < 2 {
		t.Fatalf("TSO server saw %d messages", got)
	}

	tx2, _ := coord.Begin()
	if _, ok, _ := get(tx2, "dn1", 1); !ok {
		t.Fatal("row invisible under TSO-SI")
	}
	tx2.Abort()
}

func TestHLCSendsNothingToTSO(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	tso.NewServer(c.net, "tso", simnet.DC1) // present but unused
	coord := hlcCoord(c)
	tx, _ := coord.Begin()
	put(tx, "dn1", dn.OpInsert, userRow(1, "a", 1))
	put(tx, "dn2", dn.OpInsert, userRow(2, "b", 2))
	tx.Commit()
	if got := c.net.MessageCount("tso"); got != 0 {
		t.Fatalf("HLC-SI sent %d messages to the TSO", got)
	}
}

// TestCrossCoordinatorCausality: a commit observed through a read on one
// coordinator propagates causality through HLC: after CN2 *reads* the
// data (its clock absorbs the DN's clock via the prepare path on its own
// next write), its subsequent commits order after.
func TestTwoCoordinatorsConflictDetection(t *testing.T) {
	c := newCluster(t, 1, simnet.ZeroTopology())
	c.net.Register("cn2", simnet.DC2, func(string, any) (any, error) { return nil, nil })
	coord1 := hlcCoord(c)
	coord2 := NewCoordinator(c.net, "cn2", NewHLCOracle(hlc.NewClock(nil)))

	seed, _ := coord1.Begin()
	put(seed, "dn1", dn.OpInsert, userRow(1, "a", 100))
	seed.Commit()

	// Concurrent updates from two CNs: exactly one must win.
	t1, _ := coord1.Begin()
	t2, _ := coord2.Begin()
	err1 := put(t1, "dn1", dn.OpUpdate, userRow(1, "a", 111))
	err2 := put(t2, "dn1", dn.OpUpdate, userRow(1, "a", 222))
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("expected exactly one winner: err1=%v err2=%v", err1, err2)
	}
	if err1 == nil {
		t1.Commit()
		t2.Abort()
	} else {
		t2.Commit()
		t1.Abort()
	}
}

func TestMoneyConservationAcrossShards(t *testing.T) {
	c := newCluster(t, 3, simnet.ZeroTopology())
	coord := hlcCoord(c)
	const perDN = 4
	const initial = 1000

	seed, _ := coord.Begin()
	for d := 0; d < 3; d++ {
		for i := int64(0); i < perDN; i++ {
			id := int64(d)*perDN + i
			if err := put(seed, c.name[d], dn.OpInsert, userRow(id, "acct", initial)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	dnOf := func(id int64) string { return c.name[id/perDN] }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cn := fmt.Sprintf("cn-w%d", w)
			c.net.Register(cn, simnet.DC1, func(string, any) (any, error) { return nil, nil })
			co := NewCoordinator(c.net, cn, NewHLCOracle(hlc.NewClock(nil)))
			for i := 0; i < 50; i++ {
				from := int64((w*7 + i) % (3 * perDN))
				to := int64((w*7 + i + 5) % (3 * perDN))
				if from == to {
					continue
				}
				tx, _ := co.Begin()
				fr, ok1, _ := get(tx, dnOf(from), from)
				tr, ok2, _ := get(tx, dnOf(to), to)
				if !ok1 || !ok2 {
					tx.Abort()
					continue
				}
				fr = fr.Clone()
				tr = tr.Clone()
				fr[2] = types.Int(fr[2].AsInt() - 7)
				tr[2] = types.Int(tr[2].AsInt() + 7)
				if err := put(tx, dnOf(from), dn.OpUpdate, fr); err != nil {
					tx.Abort()
					continue
				}
				if err := put(tx, dnOf(to), dn.OpUpdate, tr); err != nil {
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err != nil {
					continue
				}
			}
		}(w)
	}
	wg.Wait()

	check, _ := coord.Begin()
	var total int64
	for d := 0; d < 3; d++ {
		resp, err := check.Scan(c.name[d], dn.ScanReq{Table: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Rows {
			total += r[2].AsInt()
		}
	}
	check.Abort()
	if total != 3*perDN*initial {
		t.Fatalf("money not conserved: %d != %d", total, 3*perDN*initial)
	}
}

// TestHLCCommitTimestampIsMaxPrepare verifies §IV step 5 directly.
func TestHLCCommitTimestampIsMaxPrepare(t *testing.T) {
	prep1 := hlc.New(100, 1)
	prep2 := hlc.New(200, 5)
	prep3 := hlc.New(150, 9)
	clock := hlc.NewClock(nil)
	o := NewHLCOracle(clock)
	got, err := o.CommitTS([]hlc.Timestamp{prep1, prep2, prep3})
	if err != nil || got != prep2 {
		t.Fatalf("CommitTS = %v, %v", got, err)
	}
	if clock.Last() < prep2 {
		t.Fatal("coordinator clock not updated with max prepare_ts")
	}
	// 1PC path: zero delegates to the participant.
	got, err = o.CommitTS(nil)
	if err != nil || !got.IsZero() {
		t.Fatalf("1PC CommitTS = %v, %v", got, err)
	}
}

func TestOracleNames(t *testing.T) {
	if NewHLCOracle(hlc.NewClock(nil)).Name() != "hlc-si" {
		t.Fatal("hlc oracle name")
	}
	net := simnet.New(simnet.ZeroTopology())
	net.Register("x", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	tso.NewServer(net, "tso", simnet.DC1)
	if NewTSOOracle(tso.NewClient(net, "x", "tso")).Name() != "tso-si" {
		t.Fatal("tso oracle name")
	}
}

func TestMultiWriteMultiGetOneRPCPerDN(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)

	// Batched writes: one MultiWrite per DN carries every row; the request
	// itself opens the branch (no separate open round trip).
	seed, _ := coord.Begin()
	before1 := c.net.MessageCount("dn1")
	err := seed.MultiWrite("dn1", []dn.WriteItem{
		{Table: 1, Op: dn.OpInsert, Row: userRow(1, "a", 10)},
		{Table: 1, Op: dn.OpInsert, Row: userRow(2, "b", 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.net.MessageCount("dn1") - before1; got != 1 {
		t.Fatalf("MultiWrite cost %d RPCs to dn1, want 1 (implicit branch open)", got)
	}
	if err := seed.MultiWrite("dn2", []dn.WriteItem{
		{Table: 1, Op: dn.OpInsert, Row: userRow(3, "c", 30)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// Batched reads on a fresh transaction: one MultiGet RPC answers all
	// keys on the DN, including misses, in input order.
	tx, _ := coord.Begin()
	before1 = c.net.MessageCount("dn1")
	rs, err := tx.MultiGet("dn1", []dn.PointGet{
		{Table: 1, PK: pkOf(2)},
		{Table: 1, PK: pkOf(99)},
		{Table: 1, PK: pkOf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.net.MessageCount("dn1") - before1; got != 1 {
		t.Fatalf("MultiGet cost %d RPCs to dn1, want 1", got)
	}
	if len(rs) != 3 || !rs[0].OK || rs[1].OK || !rs[2].OK {
		t.Fatalf("MultiGet results = %+v", rs)
	}
	if rs[0].Row[1].AsString() != "b" || rs[2].Row[1].AsString() != "a" {
		t.Fatalf("MultiGet rows out of order: %v / %v", rs[0].Row, rs[2].Row)
	}
	// Empty batches are free.
	if rs, err := tx.MultiGet("dn2", nil); rs != nil || err != nil {
		t.Fatalf("empty MultiGet = %v, %v", rs, err)
	}
	// A scan is one RPC too, and like the reads opens no branch: the
	// transaction wrote nothing.
	before2 := c.net.MessageCount("dn2")
	resp, err := tx.Scan("dn2", dn.ScanReq{Table: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.net.MessageCount("dn2") - before2; got != 1 {
		t.Fatalf("Scan cost %d RPCs to dn2, want 1", got)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][1].AsString() != "c" {
		t.Fatalf("Scan rows = %v", resp.Rows)
	}
	if n := c.dns[0].OpenBranches() + c.dns[1].OpenBranches(); n != 0 {
		t.Fatalf("reads opened %d branches", n)
	}
	tx.Abort()
}

// TestConcurrentFirstContactOpensOneBranch races a fresh transaction's
// first requests to one DN. A proxy in front of the DN holds every
// MultiGet and MultiWrite until the concurrent Scans have returned, so a
// Scan is the branch's first contact although the writes registered the
// branch CN-side before it. Every in-branch request carries the
// snapshot, so whichever arrives first opens the branch;
// with a separate begin round trip the Scans found the branch registered,
// skipped the begin, and failed with "unknown transaction branch". After
// commit every write is visible, and every read saw the snapshot — not a
// row another transaction committed after it.
func TestConcurrentFirstContactOpensOneBranch(t *testing.T) {
	const per = 4 // goroutines per request kind
	c := newCluster(t, 1, simnet.ZeroTopology())
	coord := hlcCoord(c)
	seed, _ := coord.Begin()
	for id := int64(0); id < per; id++ {
		if err := put(seed, "dn1", dn.OpInsert, userRow(id, "seed", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	held := make(chan struct{}, 2*per)
	release := make(chan struct{})
	c.net.Register("dn1-proxy", simnet.DC1, func(_ string, msg any) (any, error) {
		switch msg.(type) {
		case dn.MultiGetReq, dn.MultiWriteReq:
			held <- struct{}{}
			<-release
		}
		return c.net.Call("dn1-proxy", "dn1", msg)
	})

	tx, _ := coord.Begin()
	later, _ := coord.Begin()
	if err := put(later, "dn1", dn.OpUpdate, userRow(0, "later", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := later.Commit(); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 3*per)
	reads := make([]types.Row, per)
	var batched sync.WaitGroup
	for g := 0; g < per; g++ {
		batched.Add(2)
		go func(g int) {
			defer batched.Done()
			row, _, err := get(tx, "dn1-proxy", int64(g))
			reads[g] = row
			errs <- err
		}(g)
		go func(g int) {
			defer batched.Done()
			errs <- put(tx, "dn1-proxy", dn.OpInsert, userRow(int64(100+g), "new", 3))
		}(g)
	}
	for i := 0; i < 2*per; i++ {
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d batched requests reached the proxy", i, 2*per)
		}
	}
	scans := make([][]types.Row, per)
	var scanners sync.WaitGroup
	for g := 0; g < per; g++ {
		scanners.Add(1)
		go func(g int) {
			defer scanners.Done()
			resp, err := tx.Scan("dn1-proxy", dn.ScanReq{Table: 1})
			scans[g] = resp.Rows
			errs <- err
		}(g)
	}
	scanners.Wait()
	close(release)
	batched.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	for g, rows := range scans {
		if len(rows) != per {
			t.Fatalf("scan %d saw %d rows, want the %d seeded", g, len(rows), per)
		}
		for _, r := range rows {
			if r[1].AsString() != "seed" {
				t.Fatalf("scan %d saw %v past its snapshot", g, r)
			}
		}
	}
	for g, r := range reads {
		if r == nil || r[1].AsString() != "seed" {
			t.Fatalf("MultiGet %d = %v, want the seeded row", g, r)
		}
	}
	check, _ := coord.Begin()
	defer check.Abort()
	for g := 0; g < per; g++ {
		if _, ok, err := get(check, "dn1", int64(100+g)); err != nil || !ok {
			t.Fatalf("committed write %d invisible: ok=%v err=%v", 100+g, ok, err)
		}
	}
}

func TestMultiWriteAbortRollsBack(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)
	tx, _ := coord.Begin()
	if err := tx.MultiWrite("dn1", []dn.WriteItem{
		{Table: 1, Op: dn.OpInsert, Row: userRow(1, "x", 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.MultiWrite("dn2", []dn.WriteItem{
		{Table: 1, Op: dn.OpInsert, Row: userRow(2, "y", 2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check, _ := coord.Begin()
	if _, ok, _ := get(check, "dn1", 1); ok {
		t.Fatal("aborted batched write visible on dn1")
	}
	if _, ok, _ := get(check, "dn2", 2); ok {
		t.Fatal("aborted batched write visible on dn2")
	}
	check.Abort()
}

// TestCommitSendsNothingToReadOnlyDN: only a write opens a branch. A
// transaction reads its own write on the DN it wrote (through the
// branch); on a DN it only read it sees its snapshot — not a row
// committed after it began — and holds no branch there, so COMMIT sends
// that DN nothing.
func TestCommitSendsNothingToReadOnlyDN(t *testing.T) {
	c := newCluster(t, 2, simnet.ZeroTopology())
	coord := hlcCoord(c)
	tx, _ := coord.Begin()
	later, _ := coord.Begin()
	if err := put(later, "dn2", dn.OpInsert, userRow(2, "later", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := later.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := put(tx, "dn1", dn.OpInsert, userRow(1, "mine", 1)); err != nil {
		t.Fatal(err)
	}
	if row, ok, err := get(tx, "dn1", 1); err != nil || !ok || row[1].AsString() != "mine" {
		t.Fatalf("own write on dn1: row %v found %v err %v", row, ok, err)
	}
	if row, ok, err := get(tx, "dn2", 2); err != nil || ok {
		t.Fatalf("dn2 read past the snapshot: row %v found %v err %v", row, ok, err)
	}
	if n := c.dns[1].OpenBranches(); n != 0 {
		t.Fatalf("a read opened %d branches on dn2", n)
	}
	before := c.net.MessageCount("dn2")
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.net.MessageCount("dn2") - before; got != 0 {
		t.Fatalf("COMMIT sent %d messages to dn2, which the transaction only read", got)
	}
	check, _ := coord.Begin()
	if _, ok, _ := get(check, "dn1", 1); !ok {
		t.Fatal("committed write invisible")
	}
}

func TestSessionConsistentROReadAfterWrite(t *testing.T) {
	c := newCluster(t, 1, simnet.ZeroTopology())
	if _, err := c.dns[0].AddRO("dn1-ro1"); err != nil {
		t.Fatal(err)
	}
	coord := hlcCoord(c)
	tx, _ := coord.Begin()
	put(tx, "dn1", dn.OpInsert, userRow(1, "fresh", 1))
	commitTS, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	var minLSN wal.LSN
	tx.EachBranch(func(b Branch) {
		if b.DN == "dn1" {
			minLSN = b.LSN
		}
	})
	if minLSN == 0 {
		t.Fatal("committed branch dn1 has no commit LSN")
	}
	rs, err := coord.MultiGetAt("dn1-ro1", []dn.PointGet{{Table: 1, PK: pkOf(1)}}, commitTS, minLSN, time.Time{})
	if err != nil || !rs[0].OK || rs[0].Row[1].AsString() != "fresh" {
		t.Fatalf("RO read = %+v %v", rs, err)
	}
}
