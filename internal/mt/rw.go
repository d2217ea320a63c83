package mt

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hlc"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// RW is one read-write node of a PolarDB-MT cluster. It can serve any
// tenant currently bound to it; binding is checked at transaction start
// and re-validated (by version) at commit, standing in for the paper's
// lease subscription ("when the RW node finds that the lease is lost, it
// will suspend the submission of all outstanding transactions").
type RW struct {
	name    string
	dc      simnet.DC
	cluster *Cluster
	clock   *hlc.Clock

	mu   sync.Mutex
	open map[TenantID]*Tenant // tenants with cached metadata
	// redo is the node's PRIVATE redo log (Fig. 5: "each RW node has its
	// own private redo log"); records carry TenantID so recovery can
	// divide the log by tenant.
	redo *wal.Log
	// active counts in-flight transactions per tenant (drained during
	// transfer).
	active map[TenantID]int
	dead   bool

	// svc/svcCost model the node's commit capacity (see SetRWCapacity).
	svc     chan struct{}
	svcCost time.Duration
}

// Name returns the node name.
func (rw *RW) Name() string { return rw.name }

// Clock exposes the node clock.
func (rw *RW) Clock() *hlc.Clock { return rw.clock }

// RedoLog exposes the private redo log (recovery reads it).
func (rw *RW) RedoLog() *wal.Log { return rw.redo }

// Tx is a tenant-scoped transaction on one RW node.
type Tx struct {
	rw      *RW
	tenant  *Tenant
	txn     *storage.Txn
	version int64 // binding version at start; re-checked at commit
	done    bool
}

// Dead reports whether the node has been failed.
func (rw *RW) Dead() bool {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.dead
}

// Begin starts a transaction on the given tenant. It fails if the tenant
// is not bound here (the CN retries against the right RW), blocks if the
// tenant is mid-migration, and rejects dead nodes.
func (rw *RW) Begin(tenant TenantID) (*Tx, error) {
	// Migration gate: §V "They pause new transactions to the tenant".
	if gate := rw.cluster.pauseGate(tenant); gate != nil {
		<-gate
	}
	rw.mu.Lock()
	if rw.dead {
		rw.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrRWDead, rw.name)
	}
	rw.mu.Unlock()

	bound, version, err := rw.cluster.BindingOf(tenant)
	if err != nil {
		return nil, err
	}
	if bound != rw.name {
		return nil, fmt.Errorf("%w: %d is on %s", ErrNotBound, tenant, bound)
	}
	rw.mu.Lock()
	t, ok := rw.open[tenant]
	if !ok {
		// Shouldn't happen when bound; defensive.
		rw.mu.Unlock()
		return nil, fmt.Errorf("%w: %d not opened on %s", ErrNotBound, tenant, rw.name)
	}
	rw.active[tenant]++
	rw.mu.Unlock()
	// Shared MDL for the transaction's lifetime (released in finish):
	// concurrent DDL waits for us, and we wait for in-flight DDL.
	t.mdl.RLock()
	return &Tx{
		rw:      rw,
		tenant:  t,
		txn:     t.eng.Begin(rw.clock.Now()),
		version: version,
	}, nil
}

func (tx *Tx) finish() {
	tx.tenant.mdl.RUnlock()
	tx.rw.mu.Lock()
	tx.rw.active[tx.tenant.ID]--
	tx.rw.mu.Unlock()
	tx.done = true
}

// checkTable enforces the single-tenant rule: the table must belong to
// this transaction's tenant.
func (tx *Tx) checkTable(table uint32) error {
	t, err := tx.tenant.eng.Table(table)
	if err != nil {
		return fmt.Errorf("%w: table %d not in tenant %d", ErrCrossTenant, table, tx.tenant.ID)
	}
	if TenantID(t.Tenant) != tx.tenant.ID {
		return fmt.Errorf("%w: table %d", ErrCrossTenant, table)
	}
	return nil
}

// Insert adds a row.
func (tx *Tx) Insert(table uint32, row types.Row) error {
	if err := tx.checkTable(table); err != nil {
		return err
	}
	return tx.tenant.eng.Insert(tx.txn, table, row)
}

// Update replaces a row.
func (tx *Tx) Update(table uint32, row types.Row) error {
	if err := tx.checkTable(table); err != nil {
		return err
	}
	return tx.tenant.eng.Update(tx.txn, table, row)
}

// Delete removes a row.
func (tx *Tx) Delete(table uint32, pk []byte) error {
	if err := tx.checkTable(table); err != nil {
		return err
	}
	return tx.tenant.eng.Delete(tx.txn, table, pk)
}

// Get reads a row.
func (tx *Tx) Get(table uint32, pk []byte) (types.Row, bool, error) {
	if err := tx.checkTable(table); err != nil {
		return nil, false, err
	}
	return tx.tenant.eng.Get(tx.txn, table, pk)
}

// Scan streams a key range.
func (tx *Tx) Scan(table uint32, start, end []byte, fn func(pk []byte, row types.Row) bool) error {
	if err := tx.checkTable(table); err != nil {
		return err
	}
	return tx.tenant.eng.ScanRange(tx.txn, table, start, end, fn)
}

// Commit finalizes the transaction, re-validating the binding version:
// if the tenant migrated mid-transaction (lease lost), the transaction
// aborts (§V: "it will immediately abort all affected transactions").
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrStaleBinding
	}
	defer tx.finish()
	bound, version, err := tx.rw.cluster.BindingOf(tx.tenant.ID)
	if err == nil && (bound != tx.rw.name || version != tx.version) {
		_ = tx.tenant.eng.Abort(tx.txn)
		return fmt.Errorf("%w: tenant %d moved to %s", ErrStaleBinding, tx.tenant.ID, bound)
	}
	if rw := tx.rw; rw.svc != nil {
		// Occupy an execution slot for the commit's service time.
		rw.svc <- struct{}{}
		simnet.Delay(rw.svcCost)
		<-rw.svc
	}
	if _, err := tx.tenant.eng.CommitOnePhase(tx.txn, tx.rw.clock); err != nil {
		return err
	}
	tx.tenant.addLoad(1)
	// Append the transaction's redo to this RW's private log and mark
	// buffer-pool dirt (flushed on transfer).
	redo := tx.txn.Redo()
	if len(redo) > 0 {
		_, end := tx.rw.redo.AppendMTR(redo...)
		tx.rw.redo.SetFlushed(end)
		for _, rec := range redo {
			switch rec.Type {
			case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
				tx.tenant.eng.Pool().MarkDirty(rec.TableID, rec.Key, end)
			}
		}
	}
	return nil
}

// Abort rolls back.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrStaleBinding
	}
	defer tx.finish()
	return tx.tenant.eng.Abort(tx.txn)
}

// activeTxns reports in-flight transactions for a tenant.
func (rw *RW) activeTxns(tenant TenantID) int {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.active[tenant]
}

// OpenTenants lists tenants with cached metadata on this node.
func (rw *RW) OpenTenants() []TenantID {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	out := make([]TenantID, 0, len(rw.open))
	for id := range rw.open {
		out = append(out, id)
	}
	return out
}
