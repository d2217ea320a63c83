package core

import (
	"fmt"

	"repro/internal/dn"
	"repro/internal/executor"
	"repro/internal/htap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/vector"
)

// This file lowers physical plans to executor operator trees. Every
// plan, TP or AP, runs on the one batch engine: BatchOperator trees
// exchanging ~1024-row column-major batches, with shard fetches fanned
// out as fragments on the htap scheduler. What a TP plan does
// differently is all in queryCtx — reads go through the statement's
// transaction branches on the leaders (ctx.tx), fragments run in
// htap.GroupTP, and no AP memory is reserved.

// buildBatchOperator lowers a plan node to a batch operator tree,
// wrapping each node with an instrumented shim when the query runs under
// EXPLAIN ANALYZE (ctx.analyze non-nil).
func (cn *CN) buildBatchOperator(node optimizer.Node, ctx *queryCtx) (executor.BatchOperator, error) {
	op, err := cn.lowerBatchOperator(node, ctx)
	if err != nil || ctx.analyze == nil {
		return op, err
	}
	return executor.InstrumentBatch(op, ctx.statsFor(node)), nil
}

// lowerBatchOperator is the uninstrumented lowering behind
// buildBatchOperator.
func (cn *CN) lowerBatchOperator(node optimizer.Node, ctx *queryCtx) (executor.BatchOperator, error) {
	switch n := node.(type) {
	case *optimizer.ScanNode:
		return cn.buildBatchScan(n, ctx)
	case *optimizer.FilterNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &executor.BatchFilter{Input: in, Pred: n.Pred}, nil
	case *optimizer.ProjectNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &executor.BatchProject{Input: in, Exprs: n.Exprs, Names: n.Names}, nil
	case *optimizer.SortNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		op := &executor.BatchSort{Input: in}
		for _, k := range n.Keys {
			op.Keys = append(op.Keys, executor.SortKey{Expr: k.Expr, Desc: k.Desc})
		}
		return op, nil
	case *optimizer.LimitNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &executor.BatchLimit{Input: in, N: n.N}, nil
	case *optimizer.JoinNode:
		if op, ok, err := cn.buildBatchPartitionWiseJoin(n, ctx); err != nil {
			return nil, err
		} else if ok {
			return op, nil
		}
		left, err := cn.buildBatchOperator(n.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := cn.buildBatchOperator(n.Right, ctx)
		if err != nil {
			return nil, err
		}
		if len(n.LeftKeys) > 0 {
			return &executor.BatchHashJoin{Left: left, Right: right,
				LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
				Residual: n.On, Outer: n.Outer}, nil
		}
		return &executor.BatchNestedLoopJoin{Left: left, Right: right, On: n.On, Outer: n.Outer}, nil
	case *optimizer.AggNode:
		return cn.buildBatchAgg(n, ctx)
	default:
		return nil, fmt.Errorf("core: cannot execute plan node %T", node)
	}
}

// buildBatchAgg lowers aggregation, using the two-phase split when the
// input is a scan: per-shard fragments compute partial aggregates near
// the data, and the coordinator merges (§VI-C).
func (cn *CN) buildBatchAgg(n *optimizer.AggNode, ctx *queryCtx) (executor.BatchOperator, error) {
	scan, scanInput := n.Input.(*optimizer.ScanNode)
	if n.TwoPhase && scanInput && len(scan.PointLookups) == 0 && scan.GSI == nil {
		return cn.buildBatchTwoPhaseAgg(n, scan, ctx)
	}
	in, err := cn.buildBatchOperator(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &executor.BatchHashAgg{Input: in, GroupBy: n.GroupBy,
		Aggs: aggSpecs(n.Aggs), Mode: executor.AggComplete, Names: n.Names}, nil
}

// buildBatchTwoPhaseAgg fans one partial-aggregation batch fragment out
// per shard; partial states flow back as batches through bounded
// exchange queues and merge in a final-mode batch aggregation.
func (cn *CN) buildBatchTwoPhaseAgg(n *optimizer.AggNode, scan *optimizer.ScanNode, ctx *queryCtx) (executor.BatchOperator, error) {
	shards := scan.Shards
	if shards == nil {
		for i := 0; i < scan.Table.Shards; i++ {
			shards = append(shards, i)
		}
	}
	pushed := cn.pushableAgg(n, scan)
	scheds := []*htap.Scheduler{cn.sched}
	if ctx.mpp {
		scheds = nil
		for _, other := range cn.cluster.CNs() {
			scheds = append(scheds, other.sched)
		}
	}
	var assignments []executor.BatchFragmentAssignment
	for i, shard := range shards {
		src, err := cn.batchShardSource(scan, shard, ctx, pushed)
		if err != nil {
			return nil, err
		}
		var frag executor.BatchOperator = src
		if st := ctx.statsFor(scan); st != nil {
			// The scan never passes through buildBatchOperator here
			// (fragments consume shard sources directly), so attach its
			// stats to each source; the shared slot sums rows across shards.
			frag = executor.InstrumentBatch(src, st)
		}
		if pushed == nil {
			frag = &executor.BatchHashAgg{Input: frag, GroupBy: n.GroupBy,
				Aggs: aggSpecs(n.Aggs), Mode: executor.AggPartial}
		}
		assignments = append(assignments, executor.BatchFragmentAssignment{
			Op: frag, Sched: scheds[i%len(scheds)],
		})
	}
	gather := executor.RunBatchFragmentsUntil(ctx.group, assignments, executor.DefaultQueueHighWater, obs.Wall, ctx.s.deadline())
	finalGroup := finalGroupRefs(len(n.GroupBy))
	return &executor.BatchHashAgg{Input: gather, GroupBy: finalGroup,
		Aggs: aggSpecs(n.Aggs), Mode: executor.AggFinal, Names: n.Names}, nil
}

// buildBatchPartitionWiseJoin executes a partition-wise join (§II-B):
// both sides share a table group and join on the partition key, so shard
// i of the left table only ever matches shard i of the right. Each
// partition group becomes one join fragment running near its data — no
// redistribution, no cross-shard build table.
func (cn *CN) buildBatchPartitionWiseJoin(n *optimizer.JoinNode, ctx *queryCtx) (executor.BatchOperator, bool, error) {
	if !n.PartitionWise || len(n.LeftKeys) == 0 {
		return nil, false, nil
	}
	ls, lok := n.Left.(*optimizer.ScanNode)
	rs, rok := n.Right.(*optimizer.ScanNode)
	if !lok || !rok || len(ls.PointLookups) > 0 || len(rs.PointLookups) > 0 {
		return nil, false, nil
	}
	if ls.Table.Shards != rs.Table.Shards {
		return nil, false, nil
	}
	scheds := []*htap.Scheduler{cn.sched}
	if ctx.mpp {
		scheds = nil
		for _, other := range cn.cluster.CNs() {
			scheds = append(scheds, other.sched)
		}
	}
	var assignments []executor.BatchFragmentAssignment
	for shard := 0; shard < ls.Table.Shards; shard++ {
		var leftSrc, rightSrc executor.BatchOperator
		var err error
		leftSrc, err = cn.batchShardSource(ls, shard, ctx, nil)
		if err != nil {
			return nil, false, err
		}
		rightSrc, err = cn.batchShardSource(rs, shard, ctx, nil)
		if err != nil {
			return nil, false, err
		}
		if st := ctx.statsFor(ls); st != nil {
			leftSrc = executor.InstrumentBatch(leftSrc, st)
		}
		if st := ctx.statsFor(rs); st != nil {
			rightSrc = executor.InstrumentBatch(rightSrc, st)
		}
		frag := &executor.BatchHashJoin{Left: leftSrc, Right: rightSrc,
			LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
			Residual: n.On, Outer: n.Outer}
		assignments = append(assignments, executor.BatchFragmentAssignment{
			Op: frag, Sched: scheds[shard%len(scheds)]})
	}
	g := executor.RunBatchFragmentsUntil(ctx.group, assignments, executor.DefaultQueueHighWater, obs.Wall, ctx.s.deadline())
	g.Cols = n.Columns()
	return g, true, nil
}

// buildBatchScan lowers a table scan to batch sources. GSI routes and
// point lookups are scattered point reads, made here — during lowering,
// before any fragment of the plan is started — and columnarized; shard
// scans fan out one batch fragment per shard (under a transaction that
// is one branch RPC per shard, concurrently — the same shape as the 2PC
// prepare fan-out) and gather in shard order.
func (cn *CN) buildBatchScan(scan *optimizer.ScanNode, ctx *queryCtx) (executor.BatchOperator, error) {
	cols := scan.Columns()
	if scan.GSI != nil {
		rows, err := cn.gsiRows(scan, ctx)
		if err != nil {
			return nil, err
		}
		return executor.NewBatchRowsSource(cols, rows), nil
	}
	if len(scan.PointLookups) > 0 {
		rows, err := cn.pointRows(ctx, scan.Table, scan.PointLookups, scan.Filter, true)
		if err != nil {
			return nil, err
		}
		return executor.NewBatchRowsSource(cols, rows), nil
	}
	shards := scan.Shards
	if shards == nil {
		for i := 0; i < scan.Table.Shards; i++ {
			shards = append(shards, i)
		}
	}
	var assignments []executor.BatchFragmentAssignment
	for _, shard := range shards {
		src, err := cn.batchShardSource(scan, shard, ctx, nil)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, executor.BatchFragmentAssignment{Op: src, Sched: cn.sched})
	}
	g := executor.RunBatchFragmentsUntil(ctx.group, assignments, executor.DefaultQueueHighWater, obs.Wall, ctx.s.deadline())
	g.Cols = cols
	return g, nil
}

// batchShardSource builds the batch source for one shard of a scan, with
// filter/projection pushdown: a replica columnarizes once at the source
// (WantBatch) — or answers zero-copy from its column index — and the
// batch crosses simnet without a pivot back to rows. A leader (a TP
// statement, or AP with no replica) answers in rows, which are
// columnarized here.
func (cn *CN) batchShardSource(scan *optimizer.ScanNode, shard int, ctx *queryCtx, pushed *dn.PushAgg) (executor.BatchOperator, error) {
	dnName, err := cn.cluster.GMS.DNForShard(scan.Table.Name, shard)
	if err != nil {
		return nil, err
	}
	cn.cluster.GMS.RecordLoad(scan.Table.Name, shard, 1)
	rt := ctx.target(dnName)
	req := dn.ROScanReq{
		Table:  scan.Table.PhysicalTableID(shard),
		Filter: scan.Filter, Projection: scan.Projection,
		UseColumnIndex: scan.UseColumnIndex, Aggregate: pushed,
		WantBatch: true,
	}
	fetched := false
	return &executor.BatchCallbackSource{Cols: scan.Columns(), Fetch: func() (*vector.Batch, error) {
		if fetched {
			return nil, nil
		}
		fetched = true
		resp, err := rt.scan(req)
		if err != nil {
			return nil, err
		}
		if resp.Batch != nil {
			return resp.Batch, nil
		}
		if len(resp.Rows) == 0 {
			return nil, nil
		}
		return vector.FromRows(resp.Rows, len(resp.Rows[0])), nil
	}}, nil
}
