package optimizer

import "repro/internal/sql"

// Cost model constants (abstract units ~ "row touches"). The absolute
// values matter less than the ratios: the TP/AP threshold compares
// against them, and the row-vs-column decision flips on scanCost vs
// colScanCost (§VI-E: column stores win on large scans, row stores on
// point lookups).
const (
	pointLookupCost    = 10.0
	rowScanCostPerRow  = 1.0
	colScanCostPerRow  = 0.15
	hashJoinCostPerRow = 1.5
	nlJoinCostPerPair  = 0.05
	aggCostPerRow      = 1.2
	sortCostPerRow     = 2.0
	defaultSelectivity = 0.25
	crossShardPenalty  = 50.0 // per extra shard touched
)

// selectivityOf estimates the combined selectivity of pushed conjuncts:
// equality predicates are taken as 10%, everything else as the default.
func selectivityOf(conds []sql.Expr) float64 {
	s := 1.0
	for _, c := range conds {
		if b, ok := c.(*sql.BinaryOp); ok && b.Op == "=" {
			s *= 0.1
			continue
		}
		s *= defaultSelectivity
	}
	if s < 1e-4 {
		s = 1e-4
	}
	return s
}

// costOf computes the plan's total estimated cost bottom-up.
func costOf(n Node) float64 {
	switch node := n.(type) {
	case *ScanNode:
		if len(node.PointLookups) > 0 {
			return float64(len(node.PointLookups)) * pointLookupCost
		}
		if node.GSI != nil {
			// One hidden shard range read; non-clustered adds a primary
			// lookup per matching row (§II-B scattered reads).
			c := crossShardPenalty + node.rows*rowScanCostPerRow
			if !node.GSI.Clustered {
				c += node.rows * pointLookupCost
			}
			return c
		}
		base := float64(node.Table.Shards) * crossShardPenalty
		perRow := rowScanCostPerRow
		if node.UseColumnIndex {
			perRow = colScanCostPerRow
		}
		// Scan cost is over the table's full cardinality (filters are
		// evaluated per row even when they discard it).
		full := node.rows
		if node.Filter != nil {
			// rows was already reduced by selectivity; undo for cost.
			full = node.rows / defaultSelectivity
		}
		return base + full*perRow
	case *JoinNode:
		c := costOf(node.Left) + costOf(node.Right)
		if len(node.LeftKeys) > 0 {
			c += (node.Left.EstRows() + node.Right.EstRows()) * hashJoinCostPerRow
		} else {
			c += node.Left.EstRows() * node.Right.EstRows() * nlJoinCostPerPair
		}
		if node.PartitionWise {
			// Partition-wise joins skip redistribution.
			c *= 0.7
		}
		return c
	case *AggNode:
		return costOf(node.Input) + node.Input.EstRows()*aggCostPerRow
	case *FilterNode:
		return costOf(node.Input) + node.Input.EstRows()*0.1
	case *ProjectNode:
		return costOf(node.Input) + node.Input.EstRows()*0.1
	case *SortNode:
		return costOf(node.Input) + node.Input.EstRows()*sortCostPerRow
	case *LimitNode:
		return costOf(node.Input)
	default:
		return 0
	}
}

// applyAPChoices adjusts an AP-classified plan: column-index scans where
// available, MPP when the cluster offers multiple CN workers, and
// partial-aggregation pushdown under two-phase aggregation.
func (o *Optimizer) applyAPChoices(p *Plan) {
	multiShard := false
	var visit func(n Node)
	visit = func(n Node) {
		if scan, ok := n.(*ScanNode); ok {
			if len(scan.PointLookups) == 0 {
				if scan.Shards == nil && scan.Table.Shards > 1 || len(scan.Shards) > 1 {
					multiShard = true
				}
				// Column index wins for large scans (colScanCost <
				// rowScanCost); point lookups stay on the row store.
				if o.opts.HasColumnIndex(scan.Table.Name) {
					scan.UseColumnIndex = true
				}
			}
		}
		for _, c := range n.Children() {
			visit(c)
		}
	}
	visit(p.Root)
	p.MPP = o.opts.MPPAvailable && multiShard
	// Re-cost with the store choices applied.
	p.Cost = costOf(p.Root)
}
