package mt

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

func itemSchema() *types.Schema {
	return types.NewSchema("items", []types.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "val", Kind: types.KindString},
	}, []int{0})
}

func itemRow(id int64, val string) types.Row {
	return types.Row{types.Int(id), types.Str(val)}
}

func pkOf(id int64) []byte { return types.EncodeKey(nil, types.Int(id)) }

func newMT(t *testing.T, rwNames ...string) *Cluster {
	t.Helper()
	c := NewCluster(simnet.New(simnet.ZeroTopology()))
	for i, n := range rwNames {
		if _, err := c.AddRW(n, simnet.DC(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// seedTenant creates a tenant with one table and n committed rows.
func seedTenant(t *testing.T, c *Cluster, id TenantID, rw string, n int64) uint32 {
	t.Helper()
	if _, err := c.CreateTenant(id, rw); err != nil {
		t.Fatal(err)
	}
	tableID, err := c.CreateTable(id, itemSchema())
	if err != nil {
		t.Fatal(err)
	}
	node, _ := c.RWNode(rw)
	tx, err := node.Begin(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := tx.Insert(tableID, itemRow(i, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tableID
}

func TestTenantCRUD(t *testing.T) {
	c := newMT(t, "rw1")
	table := seedTenant(t, c, 1, "rw1", 10)
	rw, _ := c.RWNode("rw1")
	tx, _ := rw.Begin(1)
	row, ok, err := tx.Get(table, pkOf(3))
	if err != nil || !ok || row[1].AsString() != "v3" {
		t.Fatalf("get = %v %v %v", row, ok, err)
	}
	tx.Update(table, itemRow(3, "updated"))
	tx.Delete(table, pkOf(4))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := rw.Begin(1)
	count := 0
	tx2.Scan(table, nil, nil, func(_ []byte, _ types.Row) bool { count++; return true })
	tx2.Abort()
	if count != 9 {
		t.Fatalf("rows = %d", count)
	}
}

func TestBeginOnWrongRWFails(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	seedTenant(t, c, 1, "rw1", 1)
	rw2, _ := c.RWNode("rw2")
	if _, err := rw2.Begin(1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossTenantRejected(t *testing.T) {
	c := newMT(t, "rw1")
	t1 := seedTenant(t, c, 1, "rw1", 1)
	t2 := seedTenant(t, c, 2, "rw1", 1)
	_ = t1
	rw, _ := c.RWNode("rw1")
	tx, _ := rw.Begin(1)
	defer tx.Abort()
	// Touching tenant 2's table from tenant 1's transaction fails.
	if err := tx.Insert(t2, itemRow(99, "x")); !errors.Is(err, ErrCrossTenant) {
		t.Fatalf("err = %v", err)
	}
}

func TestMasterAssignment(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	if c.Master() != "rw1" {
		t.Fatalf("master = %s", c.Master())
	}
}

func TestTransferMovesTenantWithoutCopy(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	table := seedTenant(t, c, 1, "rw1", 1000)

	stats, err := c.Transfer(1, "rw1", "rw2")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total <= 0 {
		t.Fatal("no transfer time recorded")
	}
	// Binding moved.
	if bound, _, _ := c.BindingOf(1); bound != "rw2" {
		t.Fatalf("bound to %s", bound)
	}
	// Data readable on the destination without any copy.
	rw2, _ := c.RWNode("rw2")
	tx, err := rw2.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	row, ok, _ := tx.Get(table, pkOf(500))
	if !ok || row[1].AsString() != "v500" {
		t.Fatalf("row after transfer = %v %v", row, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Source refuses the tenant now.
	rw1, _ := c.RWNode("rw1")
	if _, err := rw1.Begin(1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("source still serves tenant: %v", err)
	}
}

func TestTransferValidations(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	seedTenant(t, c, 1, "rw1", 1)
	if _, err := c.Transfer(1, "rw2", "rw1"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("wrong source err = %v", err)
	}
	if _, err := c.Transfer(1, "rw1", "rw1"); !errors.Is(err, ErrAlreadyBoundRW) {
		t.Fatalf("self transfer err = %v", err)
	}
	if _, err := c.Transfer(99, "rw1", "rw2"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant err = %v", err)
	}
	if _, err := c.Transfer(1, "rw1", "ghost"); !errors.Is(err, ErrUnknownRW) {
		t.Fatalf("unknown RW err = %v", err)
	}
}

func TestTransferPausesNewTransactions(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	table := seedTenant(t, c, 1, "rw1", 100)
	rw1, _ := c.RWNode("rw1")
	rw2, _ := c.RWNode("rw2")

	// Start a long-running txn, then kick off the transfer; a new Begin
	// during the transfer must block and then land on the new RW.
	hold, err := rw1.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	transferDone := make(chan error, 1)
	go func() {
		_, err := c.Transfer(1, "rw1", "rw2")
		transferDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // transfer is now draining
	beginDone := make(chan error, 1)
	go func() {
		// Paused during migration; after resume the binding points at
		// rw2, so rw1.Begin correctly fails with ErrNotBound and the
		// caller (CN) retries on rw2 — emulate that.
		_, err := rw1.Begin(1)
		if errors.Is(err, ErrNotBound) {
			tx2, err2 := rw2.Begin(1)
			if err2 == nil {
				defer tx2.Abort()
				_, _, err2 = tx2.Get(table, pkOf(1))
			}
			beginDone <- err2
			return
		}
		beginDone <- err
	}()
	select {
	case <-beginDone:
		t.Fatal("Begin did not block during migration drain")
	case <-time.After(30 * time.Millisecond):
	}
	// Finish the held txn so the drain completes.
	if err := hold.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-transferDone; err != nil {
		t.Fatal(err)
	}
	if err := <-beginDone; err != nil {
		t.Fatalf("begin after migration: %v", err)
	}
}

func TestCommitAbortsOnBindingChange(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	table := seedTenant(t, c, 1, "rw1", 10)
	rw1, _ := c.RWNode("rw1")
	tx, _ := rw1.Begin(1)
	if err := tx.Update(table, itemRow(1, "stale-write")); err != nil {
		t.Fatal(err)
	}
	// Migrate while the txn is in flight. Transfer drains active txns,
	// so simulate the lease-loss path: finish the drain by moving the
	// binding directly (a lease expiry rebind).
	c.mu.Lock()
	c.version++
	c.bindings[1] = binding{rw: "rw2", version: c.version}
	c.mu.Unlock()
	rw2, _ := c.RWNode("rw2")
	rw2.mu.Lock()
	rw2.open[1] = func() *Tenant { t, _ := c.Tenant(1); return t }()
	rw2.mu.Unlock()
	rw2.Clock().Update(rw1.Clock().Last()) // rebind RPC carries the HLC

	if err := tx.Commit(); !errors.Is(err, ErrStaleBinding) {
		t.Fatalf("commit err = %v", err)
	}
	// The stale write must not be visible.
	tx2, _ := rw2.Begin(1)
	defer tx2.Abort()
	row, _, _ := tx2.Get(table, pkOf(1))
	if row[1].AsString() == "stale-write" {
		t.Fatal("aborted stale write visible")
	}
}

func TestTransferIsFasterThanCopy(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	const rows = 5000
	t1 := seedTenant(t, c, 1, "rw1", rows)
	seedTenant(t, c, 2, "rw1", rows)

	// Steady state: the background flusher has checkpointed the bulk
	// load; only a small working set is dirty when the migration starts.
	ten1, _ := c.Tenant(1)
	ten1.Engine().Pool().FlushBefore(wal.LSN(^uint64(0)>>1), nil)
	rw1, _ := c.RWNode("rw1")
	wtx, _ := rw1.Begin(1)
	for i := int64(0); i < 50; i++ {
		wtx.Update(t1, itemRow(i, "dirty"))
	}
	if err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}

	fast, err := c.Transfer(1, "rw1", "rw2")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.TransferByCopy(2, "rw1", "rw2", 2*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if slow.RowsCopy != rows {
		t.Fatalf("copied %d rows", slow.RowsCopy)
	}
	if slow.Total < 5*fast.Total {
		t.Fatalf("copy (%v) should be much slower than rebind (%v)", slow.Total, fast.Total)
	}
	// Both tenants serve on rw2.
	rw2, _ := c.RWNode("rw2")
	for _, id := range []TenantID{1, 2} {
		tx, err := rw2.Begin(id)
		if err != nil {
			t.Fatalf("tenant %d: %v", id, err)
		}
		tx.Abort()
	}
}

func TestFailRWRedistributesTenants(t *testing.T) {
	c := newMT(t, "rw1", "rw2", "rw3")
	tables := make(map[TenantID]uint32)
	for id := TenantID(1); id <= 4; id++ {
		tables[id] = seedTenant(t, c, id, "rw1", 50)
	}
	stats, err := c.FailRW("rw1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tenants != 4 {
		t.Fatalf("recovered %d tenants", stats.Tenants)
	}
	if stats.ReplayedTxns != 4 { // one seed txn per tenant
		t.Fatalf("replayed %d txns", stats.ReplayedTxns)
	}
	// Master lease moved off the dead node.
	if c.Master() == "rw1" {
		t.Fatal("master still the dead node")
	}
	// Every tenant is bound to a survivor, data intact.
	for id := TenantID(1); id <= 4; id++ {
		bound, _, err := c.BindingOf(id)
		if err != nil || bound == "rw1" {
			t.Fatalf("tenant %d bound to %s (%v)", id, bound, err)
		}
		rw, _ := c.RWNode(bound)
		tx, err := rw.Begin(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := tx.Get(tables[id], pkOf(25)); !ok {
			t.Fatalf("tenant %d lost data", id)
		}
		tx.Abort()
	}
	// Dead node refuses transactions.
	rw1, _ := c.RWNode("rw1")
	if _, err := rw1.Begin(1); err == nil {
		t.Fatal("dead RW accepted a transaction")
	}
}

// A commit record too short to hold its timestamp fails the adoption
// before anything moves: the tenant stays bound to the dead node and the
// adopter has not opened it, even though the record is another tenant's.
func TestFailRWShortCommitRecordLeavesBinding(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	seedTenant(t, c, 1, "rw1", 1)
	rw1, _ := c.RWNode("rw1")
	_, end := rw1.RedoLog().AppendMTR(wal.Record{Type: wal.RecCommit, TenantID: 2, TxnID: 99, Payload: []byte{1, 2, 3}})
	rw1.RedoLog().SetFlushed(end)
	if _, err := c.FailRW("rw1"); !errors.Is(err, storage.ErrShortPayload) {
		t.Fatalf("FailRW = %v, want ErrShortPayload", err)
	}
	if bound, _, err := c.BindingOf(1); err != nil || bound != "rw1" {
		t.Fatalf("tenant 1 bound to %s (%v), want rw1", bound, err)
	}
	rw2, _ := c.RWNode("rw2")
	if _, err := rw2.Begin(1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("adopter began a transaction of a tenant it never adopted: %v", err)
	}
}

func TestFailRWNoSurvivors(t *testing.T) {
	c := newMT(t, "rw1")
	seedTenant(t, c, 1, "rw1", 1)
	if _, err := c.FailRW("rw1"); !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentTenantsOnDistinctRWsScaleIndependently(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	t1 := seedTenant(t, c, 1, "rw1", 0)
	t2 := seedTenant(t, c, 2, "rw2", 0)
	var wg sync.WaitGroup
	work := func(rwName string, tenant TenantID, table uint32) {
		defer wg.Done()
		rw, _ := c.RWNode(rwName)
		for i := int64(0); i < 300; i++ {
			tx, err := rw.Begin(tenant)
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Insert(table, itemRow(i, "w")); err != nil {
				tx.Abort()
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go work("rw1", 1, t1)
	go work("rw2", 2, t2)
	wg.Wait()
	for _, pair := range []struct {
		rw     string
		tenant TenantID
		table  uint32
	}{{"rw1", 1, t1}, {"rw2", 2, t2}} {
		rw, _ := c.RWNode(pair.rw)
		tx, _ := rw.Begin(pair.tenant)
		n := 0
		tx.Scan(pair.table, nil, nil, func(_ []byte, _ types.Row) bool { n++; return true })
		tx.Abort()
		if n != 300 {
			t.Fatalf("tenant %d has %d rows", pair.tenant, n)
		}
	}
}

func TestCreateTenantDuplicate(t *testing.T) {
	c := newMT(t, "rw1")
	c.CreateTenant(1, "rw1")
	if _, err := c.CreateTenant(1, "rw1"); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.CreateTenant(2, "ghost"); !errors.Is(err, ErrUnknownRW) {
		t.Fatalf("err = %v", err)
	}
}

func TestTenantsOfListsBindings(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	seedTenant(t, c, 1, "rw1", 1)
	seedTenant(t, c, 2, "rw1", 1)
	seedTenant(t, c, 3, "rw2", 1)
	if got := len(c.TenantsOf("rw1")); got != 2 {
		t.Fatalf("rw1 tenants = %d", got)
	}
	c.Transfer(2, "rw1", "rw2")
	if got := len(c.TenantsOf("rw2")); got != 2 {
		t.Fatalf("rw2 tenants after transfer = %d", got)
	}
}

// TestMDLBlocksDDLUntilDMLDrains: §V — a DDL acquires the exclusive MDL
// and therefore waits for in-flight transactions; new DML waits behind
// the DDL.
func TestMDLBlocksDDLUntilDMLDrains(t *testing.T) {
	c := newMT(t, "rw1")
	table := seedTenant(t, c, 1, "rw1", 5)
	rw, _ := c.RWNode("rw1")

	hold, err := rw.Begin(1) // holds the shared MDL
	if err != nil {
		t.Fatal(err)
	}
	if err := hold.Update(table, itemRow(1, "before-ddl")); err != nil {
		t.Fatal(err)
	}
	ddlDone := make(chan error, 1)
	go func() {
		schema := types.NewSchema("added", []types.Column{{Name: "id", Kind: types.KindInt}}, []int{0})
		_, err := c.CreateTable(1, schema)
		ddlDone <- err
	}()
	select {
	case <-ddlDone:
		t.Fatal("DDL did not wait for the in-flight transaction's MDL")
	case <-time.After(50 * time.Millisecond):
	}
	if err := hold.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ddlDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DDL still blocked after DML drained")
	}
	// New DML proceeds after the DDL completes.
	tx, err := rw.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
}
