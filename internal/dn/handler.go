package dn

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// projectRow narrows a row to the requested column positions (nil =
// whole row). A fresh slice is returned so callers can't alias storage.
func projectRow(row types.Row, proj []int) types.Row {
	if proj == nil {
		return row
	}
	out := make(types.Row, len(proj))
	for i, c := range proj {
		if c >= 0 && c < len(row) {
			out[i] = row[c]
		}
	}
	return out
}

// handle dispatches CN requests. Each arrives on its own goroutine (the
// caller's), so blocking on durability waits stalls only that request —
// the Go analogue of the paper's async commit freeing foreground threads.
// A Deadlined envelope is unwrapped first: expired requests are refused
// at the door, and the deadline bounds the prepare/commit quorum waits.
func (i *Instance) handle(from string, msg any) (any, error) {
	var deadline time.Time
	if env, ok := msg.(Deadlined); ok {
		deadline = env.Deadline
		msg = env.Req
		if !deadline.IsZero() && i.timeSrc.Until(deadline) <= 0 {
			i.mDeadline.Add(1)
			return nil, fmt.Errorf("dn %s: %T: %w", i.cfg.Name, msg, obs.ErrDeadlineExceeded)
		}
	}
	switch m := msg.(type) {
	case MultiGetReq:
		return i.handleMultiGet(m)
	case MultiWriteReq:
		return nil, i.handleMultiWrite(m)
	case ScanReq:
		return i.handleScan(m)
	case PrepareReq:
		return i.handlePrepare(m, deadline)
	case CommitReq:
		return i.handleCommit(m, deadline)
	case AbortReq:
		return nil, i.handleAbort(m)
	case ResolveTxnReq:
		return i.handleResolve(m)
	case CreateTableReq:
		return nil, i.CreateTable(m.ID, m.Tenant, m.Schema)
	case CreateIndexReq:
		return nil, i.CreateIndex(m.Table, m.Name, m.Cols)
	case StatusReq:
		return i.status(), nil
	default:
		return nil, fmt.Errorf("dn: %s: unexpected message %T", i.cfg.Name, msg)
	}
}

// branch resolves the local branch of a distributed transaction for the
// 2PC requests, which need one that an in-branch request opened.
func (i *Instance) branch(txnID uint64) (*txnEntry, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	e, ok := i.txns[txnID]
	if !ok {
		return nil, fmt.Errorf("%w: %d on %s", ErrUnknownTxn, txnID, i.cfg.Name)
	}
	return e, nil
}

// branchOrBegin resolves the local branch of an in-branch request
// (MultiWriteReq, or a MultiGetReq/ScanReq with a TxnID), opening it when
// the request is the transaction's first contact with this DN. Opening
// refuses a snapshot the engine already vacuumed past, and folds the
// coordinator's snapshot_ts into the local clock first — HLC-SI step 3,
// node.hlc >= snapshot_ts, which the §IV proof relies on. Because every
// in-branch request carries the snapshot, concurrent first requests of
// one transaction need no ordering, and a statement pays exactly one
// round trip per touched DN.
func (i *Instance) branchOrBegin(txnID uint64, snap hlc.Timestamp) (*txnEntry, error) {
	i.mu.Lock()
	if e, ok := i.txns[txnID]; ok {
		i.mu.Unlock()
		return e, nil
	}
	i.mu.Unlock()
	if !i.IsLeader() {
		return nil, fmt.Errorf("%w: %s", ErrNotLeader, i.cfg.Name)
	}
	i.clock.Update(snap)
	txn, err := i.eng.TryBegin(snap)
	if err != nil {
		return nil, fmt.Errorf("dn %s: %w", i.cfg.Name, err)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.stopped {
		_ = i.eng.Abort(txn)
		return nil, ErrStopped
	}
	if e, ok := i.txns[txnID]; ok {
		// Lost a creation race against a concurrent request of the same
		// transaction; discard the speculative engine txn.
		_ = i.eng.Abort(txn)
		return e, nil
	}
	e := &txnEntry{txn: txn, startedAt: i.timeSrc.Now()}
	i.txns[txnID] = e
	return e, nil
}

func (i *Instance) applyWrite(e *txnEntry, table uint32, op WriteOp, row types.Row, pk []byte) error {
	switch op {
	case OpInsert:
		return i.eng.Insert(e.txn, table, row)
	case OpUpdate:
		return i.eng.Update(e.txn, table, row)
	case OpDelete:
		return i.eng.Delete(e.txn, table, pk)
	default:
		return fmt.Errorf("dn: unknown write op %d", op)
	}
}

// readGuard gates reads on leadership validity. A leader inside its
// lease serves locally — no quorum round, the paper's lease read (counted
// in paxos.lease_reads). One whose lease lapsed must re-confirm its epoch
// with a majority before answering, so an isolated deposed leader can
// never serve stale rows.
func (i *Instance) readGuard() error {
	if i.node.LeaseRead() {
		return nil
	}
	if err := i.node.ConfirmLeadership(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrNotLeader, i.cfg.Name, err)
	}
	return nil
}

// readAt admits a read on the leader and returns the transaction it reads
// through. TxnID 0 is a snapshot read (HLC-SI steps 2–3): after the
// leadership guard the snapshot is folded into the clock and pinned, and
// the caller must Unpin the view it gets. Any other TxnID reads through
// that transaction's branch, opened on first contact.
func (i *Instance) readAt(txnID uint64, snap hlc.Timestamp) (*storage.Txn, error) {
	if txnID != 0 {
		e, err := i.branchOrBegin(txnID, snap)
		if err != nil {
			return nil, err
		}
		return e.txn, i.readGuard()
	}
	if err := i.readGuard(); err != nil {
		return nil, err
	}
	i.clock.Update(snap)
	return i.eng.Pin(snap)
}

func (i *Instance) handleMultiGet(m MultiGetReq) (MultiGetResp, error) {
	txn, err := i.readAt(m.TxnID, m.SnapshotTS)
	if err != nil {
		return MultiGetResp{}, err
	}
	if m.TxnID == 0 {
		defer i.eng.Unpin(txn)
	}
	i.stats.multiGets.Add(1)
	i.svc.serve(pointCost * float64(len(m.Gets)))
	return getRows(i.eng, txn, m.Gets)
}

// getRows answers a multi-get through txn, a branch or a pinned view.
func getRows(eng *storage.Engine, txn *storage.Txn, gets []PointGet) (MultiGetResp, error) {
	out := make([]ReadResp, len(gets))
	for k, g := range gets {
		row, ok, err := eng.Get(txn, g.Table, g.PK)
		if err != nil {
			return MultiGetResp{}, err
		}
		out[k] = ReadResp{Row: row, OK: ok}
	}
	return MultiGetResp{Results: out}, nil
}

func (i *Instance) handleMultiWrite(m MultiWriteReq) error {
	if m.TxnID == 0 {
		return fmt.Errorf("dn %s: a write needs a transaction branch", i.cfg.Name)
	}
	e, err := i.branchOrBegin(m.TxnID, m.SnapshotTS)
	if err != nil {
		return err
	}
	i.stats.multiWrites.Add(1)
	for _, w := range m.Writes {
		if err := i.applyWrite(e, w.Table, w.Op, w.Row, w.PK); err != nil {
			return err
		}
	}
	return nil
}

// rpcStats counts batched request types so benchmarks and tests can
// assert RPC budgets (a multi-point statement costs one multi-get per
// touched DN).
type rpcStats struct {
	multiGets   atomic.Uint64
	multiWrites atomic.Uint64
}

// RPCStats returns cumulative per-type request counts. pointReads and
// writes are always 0: the single-key read and write requests they
// counted are gone. The two slots stay only because benchmark/layers.go
// destructures four results; they leave with the next [benchmark] PR.
func (i *Instance) RPCStats() (pointReads, multiGets, writes, multiWrites uint64) {
	return 0, i.stats.multiGets.Load(), 0, i.stats.multiWrites.Load()
}

// Service-cost constants: a scanned row costs one row-unit, a point
// operation about one, and column-index rows a quarter (vectorized).
const (
	pointCost    = 1.0
	colIndexCost = 0.25
)

func (i *Instance) handleScan(m ScanReq) (ScanResp, error) {
	if m.Aggregate != nil {
		// The RW node never materializes a column index (§VI-E).
		return ScanResp{}, fmt.Errorf("%w: leader %s", ErrNoColumnIndex, i.cfg.Name)
	}
	txn, err := i.readAt(m.TxnID, m.SnapshotTS)
	if err != nil {
		return ScanResp{}, err
	}
	if m.TxnID == 0 {
		defer i.eng.Unpin(txn)
	}
	return scanRows(i.eng, txn, m, i.svc)
}

// scanRows is the row-store scan behind ScanReq on leaders and replicas,
// through txn, a branch or a pinned view. The filter, projection and
// limit apply DN-side, the node is charged the rows it examined, and
// WantBatch columnarizes the result once at the source.
func scanRows(eng *storage.Engine, txn *storage.Txn, m ScanReq, svc *svcModel) (ScanResp, error) {
	var rows []types.Row
	var evalErr error
	examined := 0
	collect := func(_ []byte, row types.Row) bool {
		examined++
		if m.Filter != nil {
			v, err := sql.Eval(m.Filter, row)
			if err != nil {
				evalErr = err
				return false
			}
			if !v.IsTruthy() {
				return true
			}
		}
		rows = append(rows, projectRow(row, m.Projection))
		return m.Limit <= 0 || len(rows) < m.Limit
	}
	err := eng.ScanRange(txn, m.Table, m.Start, m.End, collect)
	if err == nil {
		err = evalErr
	}
	svc.serve(float64(examined))
	if err != nil {
		return ScanResp{}, err
	}
	return scanResp(rows, m.WantBatch), nil
}

// scanResp packs a scan's rows, column-major when the caller wants a
// batch.
func scanResp(rows []types.Row, wantBatch bool) ScanResp {
	if !wantBatch {
		return ScanResp{Rows: rows}
	}
	if len(rows) == 0 {
		return ScanResp{}
	}
	return ScanResp{Batch: vector.FromRows(rows, len(rows[0]))}
}

// handlePrepare is 2PC phase one (§IV step 4): mark PREPARED at a
// ClockAdvance() the engine draws after the flip, persist the branch's
// redo durably (writes + prepare marker through Paxos), then return
// prepare_ts to the coordinator. The prepare record carries the
// coordinator's txn ID and the primary branch name so the branch stays
// resolvable after any crash. A retried prepare (lost reply) answers the
// already-recorded prepare timestamp.
func (i *Instance) handlePrepare(m PrepareReq, deadline time.Time) (PrepareResp, error) {
	e, err := i.branch(m.TxnID)
	if err != nil {
		return PrepareResp{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.txn.Status() == storage.TxnPrepared {
		return PrepareResp{PrepareTS: e.txn.PrepareTS()}, nil
	}
	prepareTS, err := i.eng.Prepare(e.txn, i.clock, m.TxnID, m.Primary)
	if err != nil {
		return PrepareResp{}, err
	}
	e.primary = m.Primary
	e.preparedAt = i.timeSrc.Now()
	if err := i.proposeTail(e, deadline); err != nil {
		return PrepareResp{}, err
	}
	return PrepareResp{PrepareTS: prepareTS}, nil
}

// handleCommit finalizes a branch. Two-phase path: the coordinator sends
// the decided commit_ts (max of prepare timestamps). 1PC fast path
// (CommitTS zero): the branch is the only participant, and the engine
// chooses commit_ts locally (commitBranch).
//
// CommitPoint (primary branch only): the commit decision record is
// proposed immediately ahead of the branch's redo tail, so the single
// durability wait below covers both, and log order guarantees failover
// truncation can never retain the commit marker while losing the
// decision. A presumed-abort tombstone written by a resolver in the
// meantime refuses the commit point — the transaction is already aborted.
func (i *Instance) handleCommit(m CommitReq, deadline time.Time) (CommitResp, error) {
	if fin, ok := i.finishedOutcome(m.TxnID); ok {
		return commitRespFromFinished(m.TxnID, fin)
	}
	e, err := i.branch(m.TxnID)
	if err != nil {
		return CommitResp{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if fin, ok := i.finishedOutcome(m.TxnID); ok {
		// A duplicate raced us to the entry before it was removed.
		return commitRespFromFinished(m.TxnID, fin)
	}
	if m.CommitPoint {
		if d, won := i.decide(m.TxnID, true, m.CommitTS); !won && !d.commit {
			return CommitResp{}, fmt.Errorf("dn: txn %d: commit point refused, resolver already aborted", m.TxnID)
		}
		if _, err := i.node.Propose(wal.Record{Type: wal.RecCommitPoint,
			TxnID: m.TxnID, Payload: storage.EncodeTS(m.CommitTS)}); err != nil {
			i.dropDecision(m.TxnID)
			return CommitResp{}, err
		}
	}
	fin, err := i.commitBranch(m.TxnID, e, m.CommitTS, deadline)
	if err == nil && m.CommitPoint {
		i.markDecisionDurable(m.TxnID)
	}
	return CommitResp{CommitTS: fin.commitTS, LSN: fin.lsn}, err
}

// commitRespFromFinished answers a retried commit from the recorded
// outcome: idempotent success if it committed, a hard error if a
// resolver (or abort) settled it the other way.
func commitRespFromFinished(txnID uint64, fin finishedTxn) (CommitResp, error) {
	if fin.committed {
		return CommitResp{CommitTS: fin.commitTS, LSN: fin.lsn}, nil
	}
	return CommitResp{}, fmt.Errorf("dn: txn %d already aborted", txnID)
}

func (i *Instance) handleAbort(m AbortReq) error {
	if fin, ok := i.finishedOutcome(m.TxnID); ok {
		if fin.committed {
			return fmt.Errorf("dn: txn %d already committed", m.TxnID)
		}
		return nil // retried abort: already settled that way
	}
	e, err := i.branch(m.TxnID)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.txn.Status() {
	case storage.TxnAborted:
		return nil
	case storage.TxnCommitted:
		return fmt.Errorf("dn: txn %d already committed", m.TxnID)
	}
	return i.abortBranch(m.TxnID, e)
}

// commitBranch settles branch e of transaction globalID as committed:
// the engine transition, the redo tail made durable (by deadline, zero =
// none), dirty pages, and the outcome kept for retried RPCs. A zero
// commitTS is a one-phase commit, whose commit_ts the engine draws after
// the branch leaves ACTIVE (§IV). Any other was decided elsewhere and is
// folded into the clock first (§IV step 7). After a failed durability
// wait the branch stays registered. Caller holds e.mu.
func (i *Instance) commitBranch(globalID uint64, e *txnEntry, commitTS hlc.Timestamp, deadline time.Time) (finishedTxn, error) {
	var err error
	if commitTS.IsZero() {
		commitTS, err = i.eng.CommitOnePhase(e.txn, i.clock)
	} else {
		i.clock.Update(commitTS)
		err = i.eng.Commit(e.txn, commitTS)
	}
	if err != nil {
		return finishedTxn{}, err
	}
	if err := i.proposeTail(e, deadline); err != nil {
		return finishedTxn{commitTS: commitTS}, err
	}
	i.markDirtyPages(e.txn)
	fin := finishedTxn{committed: true, commitTS: commitTS, lsn: i.node.DLSN()}
	i.finish(globalID, fin)
	return fin, nil
}

// abortBranch settles branch e of transaction globalID as aborted: the
// engine transition, a RecAbort marker if followers hold any of its redo,
// and the outcome kept for retried RPCs. The outcome is kept even when
// the marker fails to ship, since the abort cannot be undone and a leader
// that inherits the branch resolves it from its prepare record; that
// error is returned. Caller holds e.mu.
func (i *Instance) abortBranch(globalID uint64, e *txnEntry) error {
	if err := i.eng.Abort(e.txn); err != nil {
		return err
	}
	var err error
	if e.proposed > 0 {
		_, err = i.node.Propose(wal.Record{Type: wal.RecAbort, TxnID: e.txn.ID})
	}
	i.finish(globalID, finishedTxn{})
	return err
}

// proposeTail ships the branch's not-yet-proposed redo records through
// Paxos and waits until the group DLSN covers them (async commit: the
// waiting happens in this request's goroutine while other requests
// proceed), bounded by deadline (zero = none). On expiry the redo stays
// proposed (it will become durable — or be truncated by a failover — on
// its own) but the request goroutine is released with
// obs.ErrDeadlineExceeded, which the coordinator treats as an unknown
// outcome, same as a timed-out RPC.
func (i *Instance) proposeTail(e *txnEntry, deadline time.Time) error {
	redo := e.txn.Redo()
	if e.proposed >= len(redo) {
		return nil
	}
	end, err := i.node.Propose(redo[e.proposed:]...)
	if err != nil {
		return err
	}
	e.proposed = len(redo)
	err = i.node.AwaitDurableUntil(end, deadline)
	if errors.Is(err, obs.ErrDeadlineExceeded) {
		i.mDeadline.Add(1)
	}
	return err
}

// markDirtyPages records buffer-pool dirt for the txn's writes at the
// current log tail (flushed later, bounded by DLSN).
func (i *Instance) markDirtyPages(txn *storage.Txn) {
	lsn := i.node.Log().TailLSN()
	for _, rec := range txn.Redo() {
		switch rec.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			i.eng.Pool().MarkDirty(rec.TableID, rec.Key, lsn)
		}
	}
}

func (i *Instance) status() StatusResp {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := StatusResp{
		Name:     i.cfg.Name,
		IsLeader: i.IsLeader(),
		TailLSN:  i.node.Log().TailLSN(),
		DLSN:     i.node.DLSN(),
	}
	for _, ro := range i.ros {
		st.ROs = append(st.ROs, ROStatus{
			Name:       ro.name,
			AppliedLSN: ro.appliedLSN(),
			Evicted:    i.evicted[ro.name],
		})
	}
	return st
}
