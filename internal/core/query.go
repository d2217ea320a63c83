package core

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/dn"
	"repro/internal/executor"
	"repro/internal/hlc"
	"repro/internal/htap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/retry"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

// apMemRetry backs an AP query off briefly when its working-memory
// reservation is rejected: three quick jittered tries ride out a
// transient squeeze (TP preemption, a big AP query finishing) without
// holding the statement hostage.
var apMemRetry = retry.Policy{Attempts: 3, Base: 2 * time.Millisecond, Cap: 10 * time.Millisecond, Jitter: 0.5}

// queryCtx carries per-query execution state through operator building.
type queryCtx struct {
	s        *Session
	tx       *txn.Tx       // TP reads; nil in AP mode
	snapshot hlc.Timestamp // AP snapshot: every shard of the query reads at it
	group    htap.Group    // pool classification (isolation-off forces TP)
	mpp      bool
	// analyze, when non-nil, requests EXPLAIN ANALYZE instrumentation:
	// operator lowering wraps every node and records its rows-out and
	// wall time here. Populated during (single-goroutine) lowering only.
	analyze map[optimizer.Node]*obs.OpStats
}

// statsFor returns (creating on demand) the stats slot for a plan node;
// nil when the query is not being analyzed.
func (ctx *queryCtx) statsFor(n optimizer.Node) *obs.OpStats {
	if ctx.analyze == nil {
		return nil
	}
	st := ctx.analyze[n]
	if st == nil {
		st = &obs.OpStats{}
		ctx.analyze[n] = st
	}
	return st
}

// execSelect plans and runs a SELECT.
func (s *Session) execSelect(sel *sql.Select) (*Result, error) {
	var err error
	if sel.Where, err = s.rewriteSubqueries(sel.Where); err != nil {
		return nil, err
	}
	if sel.Having, err = s.rewriteSubqueries(sel.Having); err != nil {
		return nil, err
	}
	plan, err := s.cn.planFor(sel, s.trace())
	if err != nil {
		return nil, err
	}
	rows, err := s.runPlan(plan, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: plan.Root.Columns(), Rows: rows, Plan: plan}, nil
}

// runPlan executes a physical plan under the HTAP routing rules: TP
// plans read the RW leaders through the statement's transaction in the TP
// pool; AP plans read RO replicas (or, with none, the leaders) at one
// query snapshot in the AP pool (unless isolation is off, Fig. 9 config
// 1).
func (s *Session) runPlan(plan *optimizer.Plan, analyze map[optimizer.Node]*obs.OpStats) ([]types.Row, error) {
	// SELECTs take their admission slot here, after the optimizer has
	// classified the plan: AP plans queue (and brown out) behind TP.
	release, err := s.admit(plan.IsAP)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx := &queryCtx{s: s, mpp: plan.MPP, analyze: analyze}
	ctx.group = htap.GroupTP
	if plan.IsAP && !s.cn.cluster.cfg.IsolationOff {
		ctx.group = htap.GroupAP
	}
	if plan.IsAP {
		snap, err := s.cn.coord.Oracle().SnapshotTS()
		if err != nil {
			return nil, err
		}
		ctx.snapshot = snap
	} else {
		tx, done, err := s.txnFor()
		if err != nil {
			return nil, err
		}
		defer func() {
			// Read-only execution: an auto-commit transaction that wrote
			// nothing commits without a message.
			_ = done(nil)
		}()
		ctx.tx = tx
	}
	// AP queries reserve working memory from the CN's AP region before
	// running; TP preemption may shrink that region (§VI-D). A rejected
	// reservation is transient overload — TP preemption shrinks the
	// region and finishing AP queries give memory back — so it backs off
	// briefly and, if still starved, sheds as a retryable ErrOverloaded
	// counted with the other admission sheds, rather than surfacing an
	// opaque fatal error.
	if plan.IsAP {
		est := int64(plan.Root.EstRows())*96 + 4096
		memErr := retry.DoUntil(obs.Wall, apMemRetry, s.deadline(),
			func(error) bool { return true },
			func() error { return s.cn.sched.Mem.Reserve(ctx.group, est) })
		if memErr != nil {
			s.cn.admMetrics.Shed.Add(1)
			return nil, fmt.Errorf("core: AP memory admission: %w: %v", admission.ErrOverloaded, memErr)
		}
		defer s.cn.sched.Mem.Release(ctx.group, est)
	}
	// Shard fetches and partial aggregation run as scheduled fragment
	// jobs in the classified pool (quota-gated for AP, §VI-D); the final
	// merge pulls from their bounded exchange queues on this goroutine,
	// so a blocked consumer can never starve the workers its producers
	// need.
	root, err := s.cn.buildBatchOperator(plan.Root, ctx)
	if err != nil {
		return nil, err
	}
	return executor.CollectBatch(root)
}

// aggSpecs converts optimizer aggregates to executor specs.
func aggSpecs(items []optimizer.AggItem) []executor.AggSpec {
	out := make([]executor.AggSpec, len(items))
	for i, a := range items {
		out[i] = executor.AggSpec{Func: a.Func, Arg: a.Arg, Star: a.Star, Distinct: a.Distinct}
	}
	return out
}

// finalGroupRefs builds the final-merge group keys: after the partial
// phase, group columns land at positions 0..k-1.
func finalGroupRefs(k int) []sql.Expr {
	out := make([]sql.Expr, k)
	for i := range out {
		out[i] = &sql.ColumnRef{Column: fmt.Sprintf("g%d", i), Index: i}
	}
	return out
}

// pushableAgg decides whether the whole partial aggregation can be
// pushed into the column index (§VI-E): column-index scan, group-by and
// aggregate arguments all plain schema columns, no DISTINCT.
func (cn *CN) pushableAgg(n *optimizer.AggNode, scan *optimizer.ScanNode) *dn.PushAgg {
	if !scan.UseColumnIndex {
		return nil
	}
	pa := &dn.PushAgg{}
	for _, g := range n.GroupBy {
		c, ok := g.(*sql.ColumnRef)
		if !ok || c.Index < 0 {
			return nil
		}
		pa.GroupBy = append(pa.GroupBy, c.Index)
	}
	for _, a := range n.Aggs {
		if a.Distinct {
			return nil
		}
		spec := dn.PushAggSpec{Func: a.Func, Star: a.Star}
		if !a.Star {
			if c, ok := a.Arg.(*sql.ColumnRef); ok && c.Index >= 0 {
				spec.Col = c.Index
			} else if boundExpr(a.Arg) {
				// Scalar expressions over schema columns push down too
				// (§VI-E offloads e.g. SUM(l_extendedprice*(1-l_discount))).
				spec.Expr = a.Arg
			} else {
				return nil
			}
		}
		pa.Aggs = append(pa.Aggs, spec)
	}
	return pa
}

// boundExpr reports whether every column reference in e is bound.
func boundExpr(e sql.Expr) bool {
	ok := true
	sql.Walk(e, func(n sql.Expr) bool {
		if c, isRef := n.(*sql.ColumnRef); isRef && c.Index < 0 {
			ok = false
			return false
		}
		if f, isF := n.(*sql.FuncCall); isF && f.IsAggregate() {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// pointGroup collects one DN's share of a multi-point read, remembering
// each key's position in the caller's key order.
type pointGroup struct {
	dn   string
	gets []dn.PointGet
	pos  []int
}

// pointGets reads primary keys of one table: one ReadResp per key, in
// key order. Keys are grouped by owning DN and each group goes out as ONE
// MultiGet RPC, all DNs in parallel — K keys on N DNs cost N round trips
// (the Fig. 7 point-read path). Every multi-point read of the CN comes
// through here: SELECT by primary key, the row fetch of UPDATE/DELETE, and
// the base-row fetch behind a non-clustered global index.
func (cn *CN) pointGets(ctx *queryCtx, t *partition.Table, pks [][]byte, recordLoad bool) ([]dn.ReadResp, error) {
	var groups []pointGroup // first-seen DN order (deterministic fan-out)
	for k, pk := range pks {
		shard := t.ShardOfPK(pk)
		dnName, err := cn.cluster.GMS.DNForShard(t.Name, shard)
		if err != nil {
			return nil, err
		}
		if recordLoad {
			cn.cluster.GMS.RecordLoad(t.Name, shard, 1)
		}
		g := -1
		for i := range groups {
			if groups[i].dn == dnName {
				g = i
				break
			}
		}
		if g < 0 {
			g = len(groups)
			groups = append(groups, pointGroup{dn: dnName})
		}
		groups[g].gets = append(groups[g].gets, dn.PointGet{Table: t.PhysicalTableID(shard), PK: pk})
		groups[g].pos = append(groups[g].pos, k)
	}
	if len(groups) == 1 {
		// One DN owns every key: its reply is the answer, already in key order.
		return ctx.target(groups[0].dn).multiGet(groups[0].gets)
	}
	// results is indexed by key position; concurrent fetches write
	// disjoint entries.
	results := make([]dn.ReadResp, len(pks))
	errs := make(chan error, len(groups))
	for i := range groups {
		go func(g *pointGroup) {
			rs, err := ctx.target(g.dn).multiGet(g.gets)
			for i, r := range rs {
				results[g.pos[i]] = r
			}
			errs <- err
		}(&groups[i])
	}
	var firstErr error
	for range groups {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// pointRows is pointGets reduced to the rows that exist and pass filter
// (the residual conditions of a WHERE beyond its primary-key part).
func (cn *CN) pointRows(ctx *queryCtx, t *partition.Table, pks [][]byte, filter sql.Expr, recordLoad bool) ([]types.Row, error) {
	results, err := cn.pointGets(ctx, t, pks, recordLoad)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	for _, r := range results {
		if !r.OK {
			continue
		}
		if ok, err := passes(filter, r.Row); err != nil {
			return nil, err
		} else if ok {
			out = append(out, r.Row)
		}
	}
	return out, nil
}

// passes evaluates a residual filter (nil = none) against a row.
func passes(filter sql.Expr, row types.Row) (bool, error) {
	if filter == nil {
		return true, nil
	}
	v, err := sql.Eval(filter, row)
	return err == nil && v.IsTruthy(), err
}

// gsiRows executes a scan routed through a global secondary index
// (§II-B): read the pinned hidden-table shard by prefix range, then
// either remap clustered index rows straight into base layout or fetch
// base rows by primary key (scattered reads, batched per DN). The
// original filter runs against the reconstructed base rows (the GSI
// equality prefix is implied by the lookup; residual conditions still
// apply).
func (cn *CN) gsiRows(scan *optimizer.ScanNode, ctx *queryCtx) ([]types.Row, error) {
	gi := scan.GSI
	shard := gi.ShardOfIndexedValues(scan.GSIVals...)
	dnName, err := cn.cluster.GMS.DNForShard(scan.Table.Name, shard)
	if err != nil {
		return nil, err
	}
	cn.cluster.GMS.RecordLoad(scan.Table.Name, shard, 1)
	start := types.EncodeKey(nil, scan.GSIVals...)
	resp, err := ctx.target(dnName).scan(dn.ScanReq{
		Table: gi.PhysicalTableID(shard), Start: start, End: types.PrefixSuccessor(start),
	})
	if err != nil {
		return nil, err
	}
	var out []types.Row
	var pks [][]byte
	for _, irow := range resp.Rows {
		base, ok := gi.BaseRowFromIndexRow(scan.Table, irow)
		if !ok {
			// Non-clustered: the base row is a scattered read by primary
			// key; an index entry whose row was deleted since finds nothing.
			pks = append(pks, types.EncodeKey(nil, gi.BasePKFromIndexRow(scan.Table, irow)...))
			continue
		}
		// Clustered: every column is in the index row.
		if ok, err := passes(scan.Filter, base); err != nil {
			return nil, err
		} else if ok {
			out = append(out, base)
		}
	}
	if len(pks) > 0 {
		rows, err := cn.pointRows(ctx, scan.Table, pks, scan.Filter, false)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// readTarget is the node serving one statement's reads of one DN group.
// The choice is made here and nowhere else:
//   - a statement in a transaction reads the group leader through the
//     transaction, which reads through its branch where it has written
//     and at its snapshot elsewhere;
//   - a statement without one (AP) reads at the query snapshot: on an RO
//     replica enabled for AP (round-robin), no earlier than the session's
//     last write to the group, or on the leader when no replica serves
//     AP (Fig. 9 configs 1-2).
type readTarget struct {
	ctx  *queryCtx
	dn   string // group leader
	ro   *dn.RO // AP replica; nil = read the leader
	node string // the endpoint serving the reads: the replica or the leader
}

// target picks the node serving this statement's reads of a DN group.
func (ctx *queryCtx) target(dnName string) readTarget {
	rt := readTarget{ctx: ctx, dn: dnName, node: dnName}
	if ctx.tx != nil {
		return rt
	}
	cn := ctx.s.cn
	c := cn.cluster
	c.mu.Lock()
	if targets := c.apTargets[dnName]; len(targets) > 0 {
		rt.ro = targets[int(cn.roCounter.Add(1))%len(targets)]
		rt.node = rt.ro.Name()
	}
	c.mu.Unlock()
	return rt
}

// indexes reports whether the node can compute a pushed partial
// aggregate over a physical table: only a replica keeping a column index
// on it can.
func (rt readTarget) indexes(table uint32) bool {
	if rt.ro == nil {
		return false
	}
	_, ok := rt.ro.ColumnIndex(table)
	return ok
}

// multiGet reads a batch of keys owned by the group in one round trip.
func (rt readTarget) multiGet(gets []dn.PointGet) ([]dn.ReadResp, error) {
	ctx := rt.ctx
	if ctx.tx != nil {
		return ctx.tx.MultiGet(rt.dn, gets)
	}
	return ctx.s.cn.coord.MultiGetAt(rt.node, gets, ctx.snapshot, ctx.s.minLSNFor(rt.dn), ctx.s.deadline())
}

// scan runs a pushdown scan of one physical table of the group.
// Column-index scans and pushed aggregation are served by replicas that
// index the table; elsewhere the row store answers.
func (rt readTarget) scan(req dn.ScanReq) (dn.ScanResp, error) {
	ctx := rt.ctx
	if ctx.tx != nil {
		return ctx.tx.Scan(rt.dn, req)
	}
	return ctx.s.cn.coord.ScanAt(rt.node, req, ctx.snapshot, ctx.s.minLSNFor(rt.dn), ctx.s.deadline())
}
