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

// RO is a read-only replica attached to a DN instance (§II-C). It applies
// the instance's redo stream into its own engine and serves snapshot
// reads; session consistency is enforced by waiting until the applied
// LSN covers the client's last write.
type RO struct {
	name string
	dc   simnet.DC
	net  *simnet.Network
	eng  *storage.Engine
	ap   *storage.Applier
	// clock absorbs the snapshots of the reads served, as a leader's
	// does; vacuum reads "now" from it.
	clock *hlc.Clock

	// applyDelay simulates a busy/slow replica (CPU or network
	// congestion per §II-C); the instance evicts replicas whose lag
	// exceeds the limit.
	applyDelay atomic.Int64 // nanoseconds per batch

	// ingestMu serialises ingest from the in-order check through apply and
	// publish: simnet delivers every shipped batch on its own goroutine,
	// and two batches applying concurrently would apply redo out of order
	// and move applied backwards.
	ingestMu sync.Mutex
	ingests  uint64 // guarded by ingestMu

	mu      sync.Mutex
	applied wal.LSN // monotonic; also the next expected stream offset
	// wake, when non-nil, is closed on the next change of applied or
	// stopped; readers parked in waitApplied hold it.
	wake chan struct{}
	// stopped is set when the replica is no longer fed: its instance
	// stopped, or the instance evicted it.
	stopped bool

	// colBuilder, when non-nil, maintains in-memory column indexes fed
	// from the applied redo stream (§VI-E).
	colBuilder atomic.Pointer[colindex.Builder]
	// svc is this replica's own service-capacity model.
	svc *svcModel
	// metrics receives the encoded-scan counters of column indexes
	// enabled on this replica; mDeadline counts reads refused or unparked
	// because their statement deadline expired (nil-safe).
	metrics   *obs.Registry
	mDeadline *obs.Counter
}

// roAppendMsg ships raw redo [Start, Start+len(Bytes)) to an RO.
type roAppendMsg struct {
	Start wal.LSN
	Bytes []byte
}

// roAck reports the RO's applied offset back to the instance. Rewind
// asks the shipper to resume from that offset: the batch just received
// could not be applied there.
type roAck struct {
	From    string
	Applied wal.LSN
	Rewind  bool
}

// AddRO attaches a new read-only replica to the instance. Because the
// replica shares PolarFS with the RW node, creation copies no data: the
// replica starts consuming redo from the instance's current base and
// serves reads once caught up. (This is what makes adding an RO take
// seconds, not hours — the §II/§VII-C scalable-reads claim.)
func (i *Instance) AddRO(name string) (*RO, error) {
	ro := &RO{
		name:      name,
		dc:        i.cfg.DC,
		net:       i.cfg.Net,
		eng:       storage.NewEngine(),
		clock:     hlc.NewClock(nil),
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

	i.mu.Lock()
	defer i.mu.Unlock()
	if i.stopped {
		i.cfg.Net.Unregister(name)
		return nil, ErrStopped
	}
	i.ros = append(i.ros, ro)
	base := i.node.Log().BaseLSN()
	i.roCur[name] = base
	i.roAck[name] = base
	ro.mu.Lock()
	ro.applied = base
	ro.mu.Unlock()
	return ro, nil
}

// ROs lists the instance's replicas.
func (i *Instance) ROs() []*RO {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]*RO(nil), i.ros...)
}

// EvictedROs lists replicas kicked out for lagging.
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

// roShipperLoop streams new redo to each RO replica, mirroring §II-C
// steps 4-7: broadcast the update, replicas apply and piggyback their
// consumed offset, and replicas lagging beyond the limit are kicked out
// of the cluster so they stop holding back log purge.
func (i *Instance) roShipperLoop() {
	defer i.wg.Done()
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		wait := i.node.Log().WaitForAppend()
		select {
		case <-i.done:
			return
		case <-wait:
		case <-ticker.C:
		}
		i.shipToROs()
	}
}

func (i *Instance) shipToROs() {
	log := i.node.Log()
	// Only redo below DLSN is safe to expose to readers: beyond it the
	// records could be truncated after a leader change (§III).
	limit := i.node.DLSN()
	type batch struct {
		to  string
		msg roAppendMsg
	}
	var batches []batch
	// The redo is read under i.mu: purgeRedo holds it too and stays below
	// every live replica's ack, so a range starting at or above the ack
	// cannot be purged between choosing it and reading it.
	i.mu.Lock()
	for _, ro := range i.ros {
		name := ro.name
		if i.evicted[name] {
			continue
		}
		// After a rewind the cursor can trail the ack (a batch in flight
		// took the replica further); what the replica holds is not re-sent.
		cur := max(i.roCur[name], i.roAck[name])
		if cur >= limit {
			continue
		}
		// Eviction check: lag beyond the limit gets the replica kicked.
		if limit-i.roAck[name] > i.cfg.ROLagLimit {
			i.evictLocked(ro)
			continue
		}
		raw, err := log.ReadBytes(cur, limit)
		if err != nil {
			// The redo this replica still needs is gone (it attached below
			// the purge base): it can never catch up.
			i.evictLocked(ro)
			continue
		}
		// The cursor moves only past bytes actually read.
		i.roCur[name] = limit
		batches = append(batches, batch{to: name, msg: roAppendMsg{Start: cur, Bytes: raw}})
	}
	i.mu.Unlock()
	for _, b := range batches {
		i.cfg.Net.Send(i.cfg.Name, b.to, b.msg, nil)
	}
}

// evictLocked kicks a replica out of the redo feed: it stops bounding log
// purge, receives no more redo, and its parked readers fail. Caller
// holds i.mu.
func (i *Instance) evictLocked(ro *RO) {
	i.evicted[ro.name] = true
	i.mROEvicted.Inc()
	ro.halt()
}

// handleROAck ingests a replica's applied offset. simnet may deliver
// acks out of order, so the offset only ever moves up, and a rewind
// request resumes shipping from the highest offset the replica is known
// to hold — never from a stale lower one, whose redo the higher ack
// already allowed to be purged.
func (i *Instance) handleROAck(m roAck) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if m.Applied > i.roAck[m.From] {
		i.roAck[m.From] = m.Applied
	}
	if m.Rewind && i.roAck[m.From] < i.roCur[m.From] {
		i.roCur[m.From] = i.roAck[m.From]
	}
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
		if a := i.roAck[ro.name]; a < min {
			min = a
		}
	}
	return min
}

// --- RO side ---

// SetApplyDelay simulates replica slowness (per shipped batch).
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

// halt marks the replica as no longer fed and wakes parked readers,
// which then fail with ErrStopped.
func (r *RO) halt() {
	r.mu.Lock()
	r.stopped = true
	r.wakeLocked()
	r.mu.Unlock()
}

// wakeLocked releases every reader parked in waitApplied. Caller holds
// r.mu.
func (r *RO) wakeLocked() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

func (r *RO) stop() {
	r.halt()
	r.net.Unregister(r.name)
}

// handle dispatches shipped redo and CN reads. Like the RW handler it
// unwraps a Deadlined envelope first: expired requests are refused at the
// door, and the deadline bounds the session-consistency wait.
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
	case roAppendMsg:
		r.ingest(from, m)
		return nil, nil
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

// ingest applies a shipped redo batch and acks the applied offset. A
// batch that starts at or below the applied offset and ends beyond it is
// applied from the applied offset on (after a rewind the shipper re-sends
// bytes that a batch still in flight may deliver first). A batch that
// starts beyond it (simnet reordered two batches) or does not decode is
// answered with a rewind request; a stale duplicate is only acked.
func (r *RO) ingest(from string, m roAppendMsg) {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	simnet.Delay(time.Duration(r.applyDelay.Load()))
	ack := roAck{From: r.name, Applied: r.appliedLSN()}
	end := m.Start + wal.LSN(len(m.Bytes))
	switch {
	case m.Start > ack.Applied:
		ack.Rewind = true
	case end > ack.Applied:
		recs, err := wal.DecodeAll(m.Bytes[ack.Applied-m.Start:])
		if err != nil {
			ack.Rewind = true
			break
		}
		r.applyRecords(recs)
		ack.Applied = end
		r.mu.Lock()
		r.applied = end
		r.wakeLocked()
		r.mu.Unlock()
		if r.ingests++; r.ingests%256 == 0 {
			r.vacuum()
		}
	}
	r.net.Send(r.name, from, ack, nil)
}

// vacuum trims the replica's MVCC history as far as its engine's snapshot
// registry allows at the replica's clock. Returns versions freed.
func (r *RO) vacuum() int { return r.eng.Vacuum(r.clock.Now()) }

func (r *RO) applyRecords(recs []wal.Record) {
	if b := r.colBuilder.Load(); b != nil {
		_ = b.Apply(recs)
	}
	run := recs[:0:0]
	flush := func() {
		if len(run) > 0 {
			_ = r.ap.Apply(run)
			run = run[:0]
		}
	}
	for _, rec := range recs {
		if rec.Type == wal.RecDDL {
			flush()
			if schema, err := DecodeSchema(rec.Payload); err == nil {
				_, _ = r.eng.CreateTable(rec.TableID, rec.TenantID, schema)
			}
			continue
		}
		run = append(run, rec)
	}
	flush()
}

// waitApplied blocks until the applied LSN reaches lsn (session
// consistency: §II-C "The RO will wait until its snapshot version number
// is no less than LSN_RW before processing the query"). The wait ends
// with obs.ErrDeadlineExceeded at the statement deadline (zero = none)
// and with ErrStopped when the replica stops being fed.
func (r *RO) waitApplied(lsn wal.LSN, deadline time.Time) error {
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
			return fmt.Errorf("dn: ro %s stopped or evicted at lsn %d, read needs %d: %w", r.name, applied, lsn, ErrStopped)
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
	if err := r.waitApplied(minLSN, deadline); err != nil {
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
// and then maintaining them from the redo stream. Only AP-serving RO
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
	// flowing through applyRecords after the pointer is published; rows
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
