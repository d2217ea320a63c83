package mt

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/hlc"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// TransferStats reports what one tenant transfer did, and how long each
// protocol phase took — the quantities behind Figure 8(a).
type TransferStats struct {
	Tenant        TenantID
	From, To      string
	DrainWait     time.Duration
	FlushPages    int
	FlushTime     time.Duration
	RebindTime    time.Duration
	OpenTime      time.Duration
	Total         time.Duration
	PausedNewTxns bool
}

// Transfer migrates a tenant between RW nodes following §V exactly:
//
//  1. pause new transactions to the tenant (CN/proxy keeps connections
//     alive; paused transactions block on the gate);
//  2. wait for the source RW to complete ongoing statements;
//  3. flush all dirty pages associated with the tenant to PolarFS and
//     close the tenant's cached metadata on the source;
//  4. update the binding in the system table;
//  5. the destination opens the tenant's files and fetches metadata from
//     the master RW;
//  6. resume paused transactions.
//
// No row data moves — that is the entire point.
func (c *Cluster) Transfer(tenant TenantID, from, to string) (TransferStats, error) {
	start := time.Now()
	stats := TransferStats{Tenant: tenant, From: from, To: to}

	c.mu.Lock()
	src, okSrc := c.rws[from]
	dst, okDst := c.rws[to]
	t, okT := c.tenants[tenant]
	if !okSrc || !okDst {
		c.mu.Unlock()
		return stats, fmt.Errorf("%w: %s or %s", ErrUnknownRW, from, to)
	}
	if !okT {
		c.mu.Unlock()
		return stats, fmt.Errorf("%w: %d", ErrUnknownTenant, tenant)
	}
	if b := c.bindings[tenant]; b.rw != from {
		c.mu.Unlock()
		return stats, fmt.Errorf("%w: bound to %s, not %s", ErrNotBound, b.rw, from)
	}
	if from == to {
		c.mu.Unlock()
		return stats, fmt.Errorf("%w: %s", ErrAlreadyBoundRW, to)
	}
	// Step 1: pause new transactions.
	if _, already := c.paused[tenant]; already {
		c.mu.Unlock()
		return stats, fmt.Errorf("mt: tenant %d already migrating", tenant)
	}
	gate := make(chan struct{})
	c.paused[tenant] = gate
	c.mu.Unlock()
	stats.PausedNewTxns = true
	resume := func() {
		c.mu.Lock()
		delete(c.paused, tenant)
		c.mu.Unlock()
		close(gate)
	}

	// Step 2: drain ongoing transactions gracefully.
	drainStart := time.Now()
	for src.activeTxns(tenant) > 0 {
		simnet.Delay(100 * time.Microsecond)
	}
	stats.DrainWait = time.Since(drainStart)

	// Step 3: flush the tenant's dirty pages to PolarFS and close the
	// cached metadata. Page flush I/O is charged per page.
	if err := c.fault("flush"); err != nil {
		resume()
		return stats, fmt.Errorf("mt: flush phase: %w", err)
	}
	flushStart := time.Now()
	for _, tableID := range t.Tables() {
		n, err := t.eng.Pool().FlushTable(tableID, nil)
		if err != nil {
			resume()
			return stats, err
		}
		stats.FlushPages += n
	}
	// Each 16 KB page write pays a storage round trip (~20 µs). PolarFS
	// pipelines flushes, so the cost is charged in aggregate.
	simnet.Delay(time.Duration(stats.FlushPages) * 20 * time.Microsecond)
	src.mu.Lock()
	delete(src.open, tenant)
	src.mu.Unlock()
	stats.FlushTime = time.Since(flushStart)

	// Step 4: update the binding in the system table (master-managed).
	if err := c.fault("rebind"); err != nil {
		resume()
		return stats, fmt.Errorf("mt: rebind phase: %w", err)
	}
	rebindStart := time.Now()
	c.mu.Lock()
	c.version++
	c.bindings[tenant] = binding{rw: to, version: c.version}
	c.mu.Unlock()
	stats.RebindTime = time.Since(rebindStart)

	// Step 5: destination opens the tenant and fetches metadata from the
	// master RW (a small dictionary read, NOT a data copy). A fault here
	// leaves the move half-applied — rebound but not opened — which the
	// retry wrapper completes idempotently.
	if err := c.fault("open"); err != nil {
		resume()
		return stats, fmt.Errorf("mt: open phase: %w", err)
	}
	openStart := time.Now()
	dst.mu.Lock()
	dst.open[tenant] = t
	dst.mu.Unlock()
	// The dictionary fetch carries the source's HLC (every RPC does), so
	// the destination's snapshots cover everything the source committed.
	dst.clock.Update(src.clock.Last())
	simnet.Delay(200 * time.Microsecond) // dictionary fetch round trip
	stats.OpenTime = time.Since(openStart)

	// Step 6: resume.
	resume()
	stats.Total = time.Since(start)
	return stats, nil
}

// CopyStats reports the traditional shared-nothing migration baseline:
// every committed row of the tenant is read, shipped and re-inserted.
type CopyStats struct {
	Tenant   TenantID
	RowsCopy int64
	Bytes    int64
	Total    time.Duration
}

// TransferByCopy is the Figure 8(b) baseline: migrate a tenant the
// shared-nothing way, by physically copying all rows into a fresh engine
// on the destination, then rebinding. Per-row costs (encode, network,
// insert) make this O(data volume).
func (c *Cluster) TransferByCopy(tenant TenantID, from, to string, perRowCost time.Duration) (CopyStats, error) {
	start := time.Now()
	stats := CopyStats{Tenant: tenant}
	c.mu.Lock()
	src, okSrc := c.rws[from]
	dst, okDst := c.rws[to]
	t, okT := c.tenants[tenant]
	if !okSrc || !okDst || !okT {
		c.mu.Unlock()
		return stats, fmt.Errorf("%w/%w", ErrUnknownRW, ErrUnknownTenant)
	}
	gate := make(chan struct{})
	c.paused[tenant] = gate
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.paused, tenant)
		c.mu.Unlock()
		close(gate)
	}()
	for src.activeTxns(tenant) > 0 {
		simnet.Delay(100 * time.Microsecond)
	}

	// Build the destination copy row by row.
	newEng := storage.NewEngine()
	snapshot := src.clock.Now()
	for _, tableID := range t.Tables() {
		tbl, err := t.eng.Table(tableID)
		if err != nil {
			return stats, err
		}
		if _, err := newEng.CreateTable(tableID, uint32(tenant), tbl.Schema); err != nil {
			return stats, err
		}
		wtxn := newEng.Begin(snapshot)
		var pendingCost time.Duration
		err = t.eng.ScanRangeAt(tableID, nil, nil, snapshot, func(pk []byte, row types.Row) bool {
			enc := types.EncodeRow(nil, row)
			stats.Bytes += int64(len(enc))
			stats.RowsCopy++
			if perRowCost > 0 {
				// Charge transfer cost in ~1ms slices: each wait ends a
				// little late, and per-row waits would add that up and
				// overstate the baseline (we want it slow for the *right*
				// reason).
				pendingCost += perRowCost
				if pendingCost >= time.Millisecond {
					simnet.Delay(pendingCost)
					pendingCost = 0
				}
			}
			return newEng.Insert(wtxn, tableID, row) == nil
		})
		if err != nil {
			return stats, err
		}
		if pendingCost > 0 {
			simnet.Delay(pendingCost)
		}
		if err := newEng.Commit(wtxn, src.clock.Advance()); err != nil {
			return stats, err
		}
	}

	// Swap the tenant's storage to the copy and rebind.
	dst.clock.Update(src.clock.Last())
	c.mu.Lock()
	t.eng = newEng
	c.version++
	c.bindings[tenant] = binding{rw: to, version: c.version}
	c.mu.Unlock()
	src.mu.Lock()
	delete(src.open, tenant)
	src.mu.Unlock()
	dst.mu.Lock()
	dst.open[tenant] = t
	dst.mu.Unlock()
	stats.Total = time.Since(start)
	return stats, nil
}

// RecoveryStats reports an RW failover (§V: "if one RW node fails, one
// or more other RW nodes can take over its redo log. They divide log
// entries according to the tenant, replay them ... in parallel").
type RecoveryStats struct {
	Failed       string
	Tenants      int
	ReplayedTxns int64
	Total        time.Duration
}

// FailRW marks an RW dead and redistributes its tenants across the
// survivors, replaying the dead node's private redo log partitioned by
// tenant — each partition replayed by its adopting RW concurrently.
func (c *Cluster) FailRW(name string) (RecoveryStats, error) {
	start := time.Now()
	c.mu.Lock()
	dead, ok := c.rws[name]
	if !ok {
		c.mu.Unlock()
		return RecoveryStats{}, fmt.Errorf("%w: %s", ErrUnknownRW, name)
	}
	dead.mu.Lock()
	dead.dead = true
	dead.mu.Unlock()

	var survivors []*RW
	for n, rw := range c.rws {
		if n != name && !rw.dead {
			survivors = append(survivors, rw)
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].name < survivors[j].name })
	if len(survivors) == 0 {
		c.mu.Unlock()
		return RecoveryStats{}, ErrNoSurvivors
	}
	if c.master == name {
		c.master = survivors[0].name // master lease moves to a survivor
	}
	var orphans []TenantID
	for id, b := range c.bindings {
		if b.rw == name {
			orphans = append(orphans, id)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	c.mu.Unlock()

	// Read the dead node's full redo once; each adopter replays only its
	// tenant's records (TenantFilter), all in parallel.
	log := dead.redo
	recs, err := log.ReadRecords(log.BaseLSN(), log.TailLSN())
	if err != nil {
		return RecoveryStats{}, err
	}
	stats := RecoveryStats{Failed: name, Tenants: len(orphans)}
	type result struct {
		txns int64
		err  error
	}
	results := make(chan result, len(orphans))
	for i, id := range orphans {
		adopter := survivors[i%len(survivors)]
		go func(id TenantID, adopter *RW) {
			n, err := c.adoptTenant(id, adopter, recs)
			results <- result{txns: n, err: err}
		}(id, adopter)
	}
	for range orphans {
		r := <-results
		if r.err != nil {
			return stats, r.err
		}
		stats.ReplayedTxns += r.txns
	}
	stats.Total = time.Since(start)
	return stats, nil
}

// adoptTenant rebinds one orphaned tenant to the adopter, replaying the
// dead RW's redo restricted to that tenant. The shared-storage engine
// already reflects committed state (pages + redo both live in PolarFS);
// replay validates the log partition end-to-end by applying it to a
// recovery engine and is the measured recovery work.
func (c *Cluster) adoptTenant(id TenantID, adopter *RW, recs []wal.Record) (int64, error) {
	t, err := c.Tenant(id)
	if err != nil {
		return 0, err
	}
	// Parallel per-tenant replay (Fig. 5's "redo logs belonging to
	// different tenants can be concurrently replayed").
	verify := storage.NewEngine()
	for _, tableID := range t.Tables() {
		tbl, err := t.eng.Table(tableID)
		if err != nil {
			return 0, err
		}
		if _, err := verify.CreateTable(tableID, uint32(id), tbl.Schema); err != nil {
			return 0, err
		}
	}
	ap := storage.NewApplier(verify)
	ap.TenantFilter = map[uint32]bool{uint32(id): true}
	if err := ap.Apply(recs); err != nil {
		return 0, err
	}
	// Cover the dead node's timestamps: redo commit records carry them.
	// Every record is decoded before the tenant is rebound, so a corrupt
	// one leaves the binding and the adopter as they were.
	var maxTS hlc.Timestamp
	for _, rec := range recs {
		if rec.Type == wal.RecCommit {
			ts, err := storage.DecodeTS(rec.Payload)
			if err != nil {
				return 0, err
			}
			maxTS = max(maxTS, ts)
		}
	}

	c.mu.Lock()
	c.version++
	c.bindings[id] = binding{rw: adopter.name, version: c.version}
	c.mu.Unlock()
	adopter.mu.Lock()
	adopter.open[id] = t
	adopter.mu.Unlock()
	adopter.clock.Update(maxTS)
	return ap.AppliedTxns(), nil
}
