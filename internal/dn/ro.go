package dn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colindex"
	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// RO is a read-only replica attached to a DN instance (§II-C). It tails
// the instance's redo log below DLSN into its own engine and serves
// snapshot reads; session consistency is enforced by waiting until the
// applied LSN covers the client's last write.
type RO struct {
	name string
	eng  *storage.Engine
	ap   *storage.Applier
	// clock absorbs the snapshots of the reads served, as a leader's
	// does; vacuum reads "now" from it.
	clock *hlc.Clock

	// applyDelay simulates a busy/slow replica (CPU or network
	// congestion per §II-C); the instance evicts replicas whose lag
	// exceeds the limit.
	applyDelay atomic.Int64 // nanoseconds per batch

	mu sync.Mutex
	// applied is monotonic: redo below it is applied. Only the tail loop
	// raises it; the instance reads it as the replica's purge bound.
	applied wal.LSN
	// wake, when non-nil, is closed on the next change of applied or
	// stopped; readers parked in WaitApplied hold it.
	wake chan struct{}
	// stopped is set when the replica halts: its instance stopped or
	// evicted it, or its redo could not be read or applied. halted is
	// closed at the same moment; it ends the tail loop.
	stopped bool
	halted  chan struct{}

	// colBuilder, when non-nil, maintains in-memory column indexes fed
	// from the applied redo (§VI-E).
	colBuilder atomic.Pointer[colindex.Builder]
	// svc is this replica's own service-capacity model.
	svc *svcModel
	// metrics receives the encoded-scan counters of column indexes
	// enabled on this replica; mDeadline counts reads refused or unparked
	// because their statement deadline expired (nil-safe).
	metrics   *obs.Registry
	mDeadline *obs.Counter
}

// AddRO attaches a new read-only replica to the instance. Because the
// replica shares PolarFS with the RW node, creation copies no data: the
// replica starts tailing redo from the instance's current base and
// serves reads once caught up. (This is what makes adding an RO take
// seconds, not hours — the §II/§VII-C scalable-reads claim.)
func (i *Instance) AddRO(name string) (*RO, error) {
	ro := &RO{
		name:      name,
		eng:       storage.NewEngine(),
		clock:     hlc.NewClock(nil),
		halted:    make(chan struct{}),
		metrics:   i.cfg.Metrics,
		mDeadline: i.cfg.Metrics.Counter("deadline.exceeded"),
	}
	ro.svc = newSvcModel(i.cfg.ServiceRate, 0)
	ro.ap = storage.NewApplier(ro.eng)
	// Clone current schemas so the replica can apply row redo. (The real
	// system reads the shared data dictionary from PolarFS.)
	for _, t := range i.eng.Tables() {
		if _, err := ro.eng.CreateTable(t.ID, t.Tenant, t.Schema); err != nil {
			return nil, err
		}
	}
	i.cfg.Net.Register(name, i.cfg.DC, ro.handle)

	// i.mu is held from reading the base until the replica is listed, so
	// purgeRedo, which holds it too, cannot pass the replica's start.
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.stopped {
		i.cfg.Net.Unregister(name)
		return nil, ErrStopped
	}
	i.ros = append(i.ros, ro)
	ro.mu.Lock()
	ro.applied = i.node.Log().BaseLSN()
	ro.mu.Unlock()
	i.wg.Add(1)
	go i.tailRedo(ro)
	return ro, nil
}

// ROs lists the instance's replicas.
func (i *Instance) ROs() []*RO {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]*RO(nil), i.ros...)
}

// EvictedROs lists replicas kicked out for lagging or for redo they could
// not read or apply.
func (i *Instance) EvictedROs() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []string
	for name, ev := range i.evicted {
		if ev {
			out = append(out, name)
		}
	}
	return out
}

// tailRedo is ro's apply loop, §II-C steps 4-7 with the shared log as
// the feed: read the redo in [applied, DLSN) straight from the
// instance's log, apply it, publish the new applied offset, and park
// until DLSN rises or the replica halts. Only redo below DLSN is read:
// beyond it records could be truncated after a leader change (§III). A
// range the replica cannot read, decode or apply evicts it — a replica
// that skipped redo must not keep serving reads.
func (i *Instance) tailRedo(ro *RO) {
	defer i.wg.Done()
	batches := 0
	for {
		dlsn, rose := i.node.WatchDLSN()
		if from := ro.appliedLSN(); from < dlsn {
			if !simnet.DelayOr(time.Duration(ro.applyDelay.Load()), ro.halted) {
				return
			}
			if err := ro.applyRange(i.node.Log(), from, dlsn); err != nil {
				i.mu.Lock()
				i.evictLocked(ro)
				i.mu.Unlock()
				return
			}
			if batches++; batches%256 == 0 {
				ro.vacuum()
			}
		}
		select {
		case <-rose:
		case <-ro.halted:
			return
		}
	}
}

// evictLocked halts a replica and stops counting it toward the purge
// bound; its parked readers fail with ErrStopped. A replica already
// evicted, or halted by Stop, is left alone. Caller holds i.mu.
func (i *Instance) evictLocked(ro *RO) {
	if i.stopped || i.evicted[ro.name] {
		return
	}
	i.evicted[ro.name] = true
	i.mROEvicted.Inc()
	ro.halt()
}

// MinROAck returns the lowest applied LSN across live replicas — the
// log-purge bound of §II-C step 8.
func (i *Instance) MinROAck() wal.LSN {
	dlsn := i.node.DLSN()
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.minROAckLocked(dlsn)
}

// minROAckLocked is MinROAck with ceiling as the answer when no live
// replica is below it. Caller holds i.mu.
func (i *Instance) minROAckLocked(ceiling wal.LSN) wal.LSN {
	min := ceiling
	for _, ro := range i.ros {
		if i.evicted[ro.name] {
			continue
		}
		if a := ro.appliedLSN(); a < min {
			min = a
		}
	}
	return min
}

// --- RO side ---

// SetApplyDelay simulates replica slowness (per applied batch).
func (r *RO) SetApplyDelay(d time.Duration) { r.applyDelay.Store(int64(d)) }

// Name returns the RO endpoint name.
func (r *RO) Name() string { return r.name }

// Engine exposes the replica's engine (column index builds on it).
func (r *RO) Engine() *storage.Engine { return r.eng }

// AppliedLSN returns the replica's applied redo offset.
func (r *RO) AppliedLSN() wal.LSN { return r.appliedLSN() }

func (r *RO) appliedLSN() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// halt stops the replica for good: the tail loop ends and parked
// readers wake, then fail with ErrStopped.
func (r *RO) halt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		r.stopped = true
		close(r.halted)
		r.wakeLocked()
	}
}

// wakeLocked releases every reader parked in WaitApplied. Caller holds
// r.mu.
func (r *RO) wakeLocked() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// handle dispatches CN reads. Like the RW handler it unwraps a Deadlined
// envelope first: expired requests are refused at the door, and the
// deadline bounds the session-consistency wait.
func (r *RO) handle(from string, msg any) (any, error) {
	var deadline time.Time
	if env, ok := msg.(Deadlined); ok {
		deadline = env.Deadline
		msg = env.Req
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			r.mDeadline.Add(1)
			return nil, fmt.Errorf("dn: ro %s: %T: %w", r.name, msg, obs.ErrDeadlineExceeded)
		}
	}
	switch m := msg.(type) {
	case MultiGetReq:
		return r.multiGet(m, deadline)
	case ScanReq:
		return r.scan(m, deadline)
	case StatusReq:
		return StatusResp{Name: r.name, TailLSN: r.appliedLSN()}, nil
	default:
		return nil, fmt.Errorf("dn: ro %s: unexpected message %T", r.name, msg)
	}
}

// applyRange applies the redo in [from, to) of log — column indexes
// first, then the row engine — and publishes to as the applied offset.
func (r *RO) applyRange(log *wal.Log, from, to wal.LSN) error {
	raw, err := log.ReadBytes(from, to)
	if err != nil {
		return err
	}
	recs, err := wal.DecodeAll(raw)
	if err != nil {
		return err
	}
	if b := r.colBuilder.Load(); b != nil {
		if err := b.Apply(recs); err != nil {
			return err
		}
	}
	if err := applyRedo(r.eng, r.ap, recs); err != nil {
		return err
	}
	r.mu.Lock()
	r.applied = to
	r.wakeLocked()
	r.mu.Unlock()
	return nil
}

// vacuum trims the replica's MVCC history as far as its engine's snapshot
// registry allows at the replica's clock. Returns versions freed.
func (r *RO) vacuum() int { return r.eng.Vacuum(r.clock.Now()) }

// WaitApplied blocks until the applied LSN reaches lsn (session
// consistency: §II-C "The RO will wait until its snapshot version number
// is no less than LSN_RW before processing the query"). The wait ends
// with obs.ErrDeadlineExceeded at deadline (zero = none) and with
// ErrStopped when the replica halts below lsn.
func (r *RO) WaitApplied(lsn wal.LSN, deadline time.Time) error {
	var timeout <-chan time.Time
	for {
		r.mu.Lock()
		applied, stopped := r.applied, r.stopped
		if applied < lsn && !stopped && r.wake == nil {
			r.wake = make(chan struct{})
		}
		wake := r.wake
		r.mu.Unlock()
		if applied >= lsn {
			return nil
		}
		if stopped {
			return fmt.Errorf("dn: ro %s halted at lsn %d, read needs %d: %w", r.name, applied, lsn, ErrStopped)
		}
		if timeout == nil && !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-wake:
		case <-timeout:
			r.mDeadline.Add(1)
			return fmt.Errorf("dn: ro %s at lsn %d, read needs %d: %w", r.name, applied, lsn, obs.ErrDeadlineExceeded)
		}
	}
}

// readAt admits a snapshot read on the replica: branches live on the
// leader only; the replica waits for the session's watermark, folds the
// snapshot into its clock and pins it. The caller must Unpin the view.
func (r *RO) readAt(txnID uint64, snap hlc.Timestamp, minLSN wal.LSN, deadline time.Time) (*storage.Txn, error) {
	if txnID != 0 {
		return nil, fmt.Errorf("dn: ro %s: transaction %d: branches live on the leader", r.name, txnID)
	}
	if err := r.WaitApplied(minLSN, deadline); err != nil {
		return nil, err
	}
	r.clock.Update(snap)
	return r.eng.Pin(snap)
}

// multiGet serves a batch of session-consistent point reads in one
// round trip: wait for the watermark once, then answer every key.
func (r *RO) multiGet(m MultiGetReq, deadline time.Time) (MultiGetResp, error) {
	view, err := r.readAt(m.TxnID, m.SnapshotTS, m.MinLSN, deadline)
	if err != nil {
		return MultiGetResp{}, err
	}
	defer r.eng.Unpin(view)
	r.svc.serve(pointCost * float64(len(m.Gets)))
	return getRows(r.eng, view, m.Gets)
}

// EnableColumnIndex builds in-memory column indexes for the given
// tables on this replica, backfilling from the replica's current state
// and then maintaining them from the redo it tails. Only AP-serving RO
// nodes pay this memory cost; the RW node never materializes the index
// (§VI-E). batch > 1 delays maintenance (batched updates), trading
// freshness for overhead.
func (r *RO) EnableColumnIndex(tableIDs []uint32, batch int) error {
	if batch < 1 {
		batch = 1
	}
	var indexes []*colindex.Index
	backfillTS := hlc.New(0, 0)
	for _, id := range tableIDs {
		t, err := r.eng.Table(id)
		if err != nil {
			return err
		}
		ix := colindex.New(id, t.Schema)
		ix.BatchSize = batch
		ix.SetMetrics(r.metrics)
		indexes = append(indexes, ix)
	}
	// Merge into an existing builder so tables enabled earlier keep
	// their indexes; otherwise start fresh.
	builder := r.colBuilder.Load()
	if builder == nil {
		builder = colindex.NewBuilder()
	}
	for _, ix := range indexes {
		builder.Add(ix)
	}
	// Backfill: snapshot the replica's current contents. New redo keeps
	// flowing through applyRange after the pointer is published; rows
	// committed between the snapshot and publication are replayed onto
	// the index (same-PK replays supersede the backfilled version).
	snapshot := hlc.Timestamp(^uint64(0) >> 1)
	for i, id := range tableIDs {
		ix := indexes[i]
		var recs []wal.Record
		err := r.eng.ScanRangeAt(id, nil, nil, snapshot, func(pk []byte, row types.Row) bool {
			recs = append(recs, wal.Record{Type: wal.RecInsert, TableID: id,
				TxnID: ^uint64(0), Key: append([]byte(nil), pk...),
				Payload: types.EncodeRow(nil, row)})
			return true
		})
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			recs = append(recs, wal.Record{Type: wal.RecCommit, TxnID: ^uint64(0),
				Payload: storage.EncodeTS(backfillTS)})
			if err := builder.Apply(recs); err != nil {
				return err
			}
			if err := ix.Flush(); err != nil {
				return err
			}
		}
	}
	r.colBuilder.Store(builder)
	return nil
}

// ColumnIndex exposes a maintained index (benchmarks, diagnostics).
func (r *RO) ColumnIndex(tableID uint32) (*colindex.Index, bool) {
	b := r.colBuilder.Load()
	if b == nil {
		return nil, false
	}
	return b.Index(tableID)
}

func (r *RO) scan(m ScanReq, deadline time.Time) (ScanResp, error) {
	view, err := r.readAt(m.TxnID, m.SnapshotTS, m.MinLSN, deadline)
	if err != nil {
		return ScanResp{}, err
	}
	defer r.eng.Unpin(view)
	if m.UseColumnIndex {
		if ix, ok := r.ColumnIndex(m.Table); ok {
			return r.scanColumnIndex(ix, m)
		}
	}
	if m.Aggregate != nil {
		return ScanResp{}, fmt.Errorf("%w: ro %s, table %d", ErrNoColumnIndex, r.name, m.Table)
	}
	return scanRows(r.eng, view, m, r.svc)
}

// scanColumnIndex serves a ScanReq from the in-memory column index,
// including pushed-down partial aggregation. Columnar execution costs a
// quarter of the row store's tokens per row — the vectorized path's CPU
// advantage (§VI-E).
func (r *RO) scanColumnIndex(ix *colindex.Index, m ScanReq) (ScanResp, error) {
	r.svc.serve(float64(ix.Rows()) * colIndexCost)
	if m.Aggregate != nil {
		specs := make([]colindex.AggSpec, len(m.Aggregate.Aggs))
		for i, a := range m.Aggregate.Aggs {
			specs[i] = colindex.AggSpec{Func: a.Func, Col: a.Col, Expr: a.Expr, Star: a.Star}
		}
		// Partial-aggregate output is small; a batch is columnarized for
		// uniformity.
		rows, err := ix.AggScan(m.SnapshotTS, m.Filter, m.Aggregate.GroupBy, specs)
		if err != nil {
			return ScanResp{}, err
		}
		return scanResp(rows, m.WantBatch), nil
	}
	// Zero-copy: the batch's vectors alias the index's column storage.
	b, err := ix.ScanBatch(m.SnapshotTS, m.Filter, m.Projection, m.Limit)
	if err != nil {
		return ScanResp{}, err
	}
	if b.NumRows() == 0 {
		return ScanResp{}, nil
	}
	if !m.WantBatch {
		return ScanResp{Rows: b.AppendRows(nil)}, nil
	}
	return ScanResp{Batch: b}, nil
}
