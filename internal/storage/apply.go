package storage

import (
	"fmt"
	"sync"

	"repro/internal/hlc"
	"repro/internal/types"
	"repro/internal/wal"
)

// This file implements redo application: the path RO nodes use to stay in
// sync with the RW node (§II-C), followers use after DLSN advances
// (§III), PolarDB-MT peers use to recover a failed RW's tenants (§V),
// and crash recovery uses to rebuild an engine.
//
// Redo is logical-row-level in this simulation (the paper's is physical
// page-level): each transaction appears as a run of row records followed
// by a RecCommit carrying the commit timestamp, or a RecAbort. Apply
// buffers each transaction's rows and installs them atomically at commit,
// so a reader of the applying engine never observes a half-applied
// transaction.
//
// 2PC recovery (§IV) adds three concerns: RecPrepare records carry the
// prepare timestamp and the primary branch name so PREPARED transactions
// inherited through failover remain resolvable; RecCommitPoint records
// make the commit decision durable on the primary branch; RecResolveAbort
// records are the presumed-abort tombstone the resolver writes. Recovery
// sweeps read this state from another goroutine than the committer, so
// the Applier is mutex-guarded.

// PreparedBranch is an in-doubt transaction branch replayed from redo:
// prepared, but with no commit or abort marker yet.
type PreparedBranch struct {
	// TxnID is the origin engine's transaction ID — the key redo records
	// of this branch carry.
	TxnID     uint64
	PrepareTS hlc.Timestamp
	// GlobalID is the coordinator's transaction ID, the identifier the
	// primary branch's commit-point and tombstone records are keyed by.
	GlobalID uint64
	// Primary names the instance holding the authoritative commit decision
	// for this transaction (as recorded at prepare time; routing may have
	// moved its group's leadership since).
	Primary string
}

// Applier replays redo records into an engine in log order.
type Applier struct {
	eng *Engine

	mu sync.Mutex
	// pending accumulates row records per transaction until its commit
	// marker arrives.
	pending map[uint64][]wal.Record
	// prepared tracks transactions past their RecPrepare but before any
	// commit/abort marker — the in-doubt set a failed-over leader inherits.
	prepared map[uint64]PreparedBranch
	// commitPoints remembers replayed commit decisions (primary branch
	// only), capped FIFO so the map cannot grow without bound.
	commitPoints    map[uint64]hlc.Timestamp
	commitPointFIFO []uint64
	// resolveAborts remembers replayed presumed-abort tombstones, same cap.
	resolveAborts    map[uint64]bool
	resolveAbortFIFO []uint64

	// TenantFilter, when non-nil, applies only records of tenants in the
	// set — PolarDB-MT's per-tenant parallel recovery (§V: logs "divide
	// ... according to the tenant").
	TenantFilter map[uint32]bool

	applied int64 // committed transactions applied
}

// decisionCap bounds the replayed commit-point / abort-tombstone maps.
const decisionCap = 1 << 16

// NewApplier creates an Applier targeting eng.
func NewApplier(eng *Engine) *Applier {
	return &Applier{
		eng:           eng,
		pending:       make(map[uint64][]wal.Record),
		prepared:      make(map[uint64]PreparedBranch),
		commitPoints:  make(map[uint64]hlc.Timestamp),
		resolveAborts: make(map[uint64]bool),
	}
}

// AppliedTxns returns the number of transactions applied.
func (a *Applier) AppliedTxns() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// Apply consumes a batch of redo records in log order.
func (a *Applier) Apply(recs []wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			if a.TenantFilter != nil && !a.TenantFilter[rec.TenantID] {
				continue
			}
			a.pending[rec.TxnID] = append(a.pending[rec.TxnID], rec)
		case wal.RecPrepare:
			// Prepared-but-unresolved transactions stay pending; a commit
			// or abort marker resolves them. Track the branch so a
			// failed-over leader can drive resolution itself.
			ts, globalID, primary, err := DecodePrepareMeta(rec.Payload)
			if err != nil {
				return fmt.Errorf("storage: apply: prepare of txn %d: %w", rec.TxnID, err)
			}
			a.prepared[rec.TxnID] = PreparedBranch{
				TxnID: rec.TxnID, PrepareTS: ts, GlobalID: globalID, Primary: primary,
			}
		case wal.RecCommit:
			ts, err := DecodeTS(rec.Payload)
			if err != nil {
				return fmt.Errorf("storage: apply: commit of txn %d: %w", rec.TxnID, err)
			}
			delete(a.prepared, rec.TxnID)
			if err := a.commit(rec.TxnID, ts); err != nil {
				return err
			}
		case wal.RecAbort:
			delete(a.prepared, rec.TxnID)
			delete(a.pending, rec.TxnID)
		case wal.RecResolveAbort:
			// Presumed-abort tombstone: the branch aborts, and the verdict
			// itself is remembered so late commit-point writes are refused.
			delete(a.prepared, rec.TxnID)
			delete(a.pending, rec.TxnID)
			if !a.resolveAborts[rec.TxnID] {
				a.resolveAborts[rec.TxnID] = true
				a.resolveAbortFIFO = CapFIFO(a.resolveAbortFIFO, rec.TxnID, a.resolveAborts, decisionCap)
			}
		case wal.RecCommitPoint:
			// Commit decision on the primary branch: remembered so the
			// failed-over leader can answer in-doubt resolvers.
			if _, ok := a.commitPoints[rec.TxnID]; !ok {
				ts, err := DecodeTS(rec.Payload)
				if err != nil {
					return fmt.Errorf("storage: apply: commit point of txn %d: %w", rec.TxnID, err)
				}
				a.commitPoints[rec.TxnID] = ts
				a.commitPointFIFO = CapFIFO(a.commitPointFIFO, rec.TxnID, a.commitPoints, decisionCap)
			}
		case wal.RecDDL, wal.RecTenant, wal.RecCheckpt, wal.RecPaxos:
			// Control records; the catalog layers consume these.
		default:
			return fmt.Errorf("storage: apply: unexpected record %v", rec.Type)
		}
	}
	return nil
}

// CapFIFO appends id to fifo, m's keys in insertion order, and evicts
// the oldest keys from both past limit.
func CapFIFO[V any](fifo []uint64, id uint64, m map[uint64]V, limit int) []uint64 {
	fifo = append(fifo, id)
	for len(fifo) > limit {
		delete(m, fifo[0])
		fifo = fifo[1:]
	}
	return fifo
}

// commit installs a pending transaction's rows at commitTS.
// Caller holds a.mu.
func (a *Applier) commit(txnID uint64, commitTS hlc.Timestamp) error {
	rows := a.pending[txnID]
	delete(a.pending, txnID)
	if len(rows) == 0 {
		return nil // filtered out or empty transaction
	}
	writes, err := a.stage(rows)
	if err != nil {
		return fmt.Errorf("storage: apply txn %d: %w", txnID, err)
	}
	// Install via a short-lived internal transaction committed at the
	// original timestamp: readers at snapshots >= commitTS see all rows,
	// earlier snapshots none — identical visibility to the origin node.
	// It installs while PREPARED with no prepare_ts, so a reader that
	// meets one of its rows waits instead of skipping it. That reader
	// waits inside its table's B+Tree read lock, hence stage.
	txn := a.eng.Begin(hlc.Timestamp(^uint64(0) >> 1)) // snapshot above everything: replay never conflicts
	txn.status.Store(int32(TxnPrepared))
	for _, w := range writes {
		if err := w.c.install(txn, w.row); err != nil {
			_ = a.eng.Abort(txn) // cannot fail: txn is open and ours alone
			return fmt.Errorf("storage: apply txn %d: %w", txnID, err)
		}
	}
	if err := a.eng.settle(txn, TxnCommitted, commitTS); err != nil {
		return err
	}
	a.applied++
	return nil
}

// stagedWrite is a replayed row version and the chain it goes on.
type stagedWrite struct {
	c   *chain
	row types.Row // nil for a delete
}

// stage does the B+Tree work of replaying rows, before any version is
// installed: it finds or creates each row's chain, adds index entries
// (readers check those against the primary chain) and counts rows.
func (a *Applier) stage(rows []wal.Record) ([]stagedWrite, error) {
	writes := make([]stagedWrite, 0, len(rows))
	for _, rec := range rows {
		t, err := a.eng.Table(rec.TableID)
		if err != nil {
			return nil, err
		}
		if rec.Type == wal.RecDelete {
			if c := getChain(t, rec.Key, false); c != nil { // else a filtered/never-seen row
				writes = append(writes, stagedWrite{c: c})
				t.rows.Add(-1)
			}
			continue
		}
		row, err := types.DecodeRow(rec.Payload)
		if err != nil {
			return nil, err
		}
		writes = append(writes, stagedWrite{c: getChain(t, rec.Key, true), row: row})
		if rec.Type == wal.RecInsert {
			t.rows.Add(1)
		}
		t.mu.RLock()
		for _, idx := range t.indexes {
			idx.tree.Set(indexKey(idx, t.Schema, row, rec.Key), append([]byte(nil), rec.Key...))
		}
		t.mu.RUnlock()
	}
	return writes, nil
}

// PendingTxns reports transactions with buffered rows but no commit yet
// (diagnostics; should drain to zero at quiescence).
func (a *Applier) PendingTxns() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// PreparedBranches snapshots the replayed in-doubt set: transactions past
// RecPrepare with no commit/abort marker yet. A failed-over leader seeds
// its recovery sweep from this.
func (a *Applier) PreparedBranches() []PreparedBranch {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PreparedBranch, 0, len(a.prepared))
	for _, b := range a.prepared {
		out = append(out, b)
	}
	return out
}

// CommitPoint reports a replayed commit decision for txnID, if any.
func (a *Applier) CommitPoint(txnID uint64) (hlc.Timestamp, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.commitPoints[txnID]
	return ts, ok
}

// ResolvedAbort reports whether a presumed-abort tombstone was replayed
// for txnID.
func (a *Applier) ResolvedAbort(txnID uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resolveAborts[txnID]
}
