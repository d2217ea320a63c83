// Package optimizer implements the HTAP-oriented optimizer of PolarDB-X
// (paper §VI-B): it turns parsed SQL into bound physical plans, deciding
// shard pruning, operator pushdown (filters/projections/partial
// aggregation toward the DNs), join method and order, partition-wise
// joins inside table groups, row-store vs in-memory column index access,
// and — centrally for HTAP — whether a query is TP or AP by estimated
// cost against an empirical threshold.
package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/partition"
	"repro/internal/sql"
	"repro/internal/types"
)

// Node is a physical plan node. Every node knows its output columns
// (qualified names) so parents can bind expressions positionally.
type Node interface {
	Columns() []string
	// EstRows is the estimated output cardinality.
	EstRows() float64
	// Explain renders one line for plan display.
	Explain() string
	Children() []Node
}

// ScanNode reads one logical table: possibly pruned to specific shards,
// with a pushed-down filter and projection, via the row store or the
// column index.
type ScanNode struct {
	Table *partition.Table
	// Alias qualifies output columns.
	Alias string
	// Shards lists shards to read; nil means all.
	Shards []int
	// PointLookups, when non-nil, replaces scanning with PK point reads
	// (each entry is an encoded PK); used when the WHERE clause pins the
	// full primary key.
	PointLookups [][]byte
	// Filter is the pushed predicate, bound to the table schema layout.
	Filter sql.Expr
	// Projection lists schema column positions to return; nil = all.
	Projection []int
	// UseColumnIndex routes the scan to the in-memory column index on an
	// AP-serving RO node (§VI-E).
	UseColumnIndex bool
	// GSI, when non-nil, routes the scan through a global secondary
	// index (§II-B): GSIVals are the equality literals on the index's
	// leading columns, pinning one hidden-table shard. Clustered indexes
	// return full rows directly; non-clustered ones return PKs that are
	// then looked up in the primary table (scattered reads).
	GSI     *partition.GlobalIndex
	GSIVals []types.Value

	cols []string
	rows float64
}

// Columns implements Node.
func (s *ScanNode) Columns() []string { return s.cols }

// EstRows implements Node.
func (s *ScanNode) EstRows() float64 { return s.rows }

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// Explain implements Node.
func (s *ScanNode) Explain() string {
	var b strings.Builder
	store := "row"
	if s.UseColumnIndex {
		store = "colindex"
	}
	fmt.Fprintf(&b, "Scan(%s", s.Table.Name)
	if s.GSI != nil {
		kind := "gsi"
		if s.GSI.Clustered {
			kind = "clustered-gsi"
		}
		fmt.Fprintf(&b, ", %s=%s", kind, s.GSI.Name)
	} else if len(s.PointLookups) > 0 {
		fmt.Fprintf(&b, ", point×%d", len(s.PointLookups))
	} else if s.Shards != nil {
		fmt.Fprintf(&b, ", shards=%v", s.Shards)
	}
	fmt.Fprintf(&b, ", store=%s", store)
	if s.Filter != nil {
		fmt.Fprintf(&b, ", filter=%s", sql.String(s.Filter))
	}
	b.WriteString(")")
	return b.String()
}

// JoinNode joins two inputs.
type JoinNode struct {
	Left, Right Node
	// Hash join keys (bound to child layouts); empty = nested loop on On.
	LeftKeys, RightKeys []sql.Expr
	// On is the residual / NL condition bound to the combined layout.
	On    sql.Expr
	Outer bool
	// PartitionWise marks a join executable shard-locally because both
	// sides share a table group and join on the partition key (§II-B).
	PartitionWise bool

	rows float64
}

// Columns implements Node.
func (j *JoinNode) Columns() []string {
	return append(append([]string{}, j.Left.Columns()...), j.Right.Columns()...)
}

// EstRows implements Node.
func (j *JoinNode) EstRows() float64 { return j.rows }

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// Explain implements Node.
func (j *JoinNode) Explain() string {
	method := "HashJoin"
	if len(j.LeftKeys) == 0 {
		method = "NestedLoopJoin"
	}
	mod := ""
	if j.PartitionWise {
		mod = ", partition-wise"
	}
	if j.Outer {
		mod += ", left-outer"
	}
	return fmt.Sprintf("%s(%s%s)", method, sql.String(j.On), mod)
}

// AggItem is one output aggregate.
type AggItem struct {
	Func     string
	Arg      sql.Expr
	Star     bool
	Distinct bool
}

// AggNode aggregates its input. TwoPhase marks the MPP partial/final
// split (partials run in scan fragments).
type AggNode struct {
	Input    Node
	GroupBy  []sql.Expr
	Aggs     []AggItem
	TwoPhase bool
	Names    []string

	rows float64
}

// Columns implements Node.
func (a *AggNode) Columns() []string { return a.Names }

// EstRows implements Node.
func (a *AggNode) EstRows() float64 { return a.rows }

// Children implements Node.
func (a *AggNode) Children() []Node { return []Node{a.Input} }

// Explain implements Node.
func (a *AggNode) Explain() string {
	mode := "one-phase"
	if a.TwoPhase {
		mode = "two-phase"
	}
	return fmt.Sprintf("HashAgg(%d groups est, %s)", int(a.rows), mode)
}

// FilterNode applies a residual predicate that could not be pushed down.
type FilterNode struct {
	Input Node
	Pred  sql.Expr
}

// Columns implements Node.
func (f *FilterNode) Columns() []string { return f.Input.Columns() }

// EstRows implements Node.
func (f *FilterNode) EstRows() float64 { return f.Input.EstRows() * defaultSelectivity }

// Children implements Node.
func (f *FilterNode) Children() []Node { return []Node{f.Input} }

// Explain implements Node.
func (f *FilterNode) Explain() string { return "Filter(" + sql.String(f.Pred) + ")" }

// ProjectNode computes output expressions.
type ProjectNode struct {
	Input Node
	Exprs []sql.Expr
	Names []string
}

// Columns implements Node.
func (p *ProjectNode) Columns() []string { return p.Names }

// EstRows implements Node.
func (p *ProjectNode) EstRows() float64 { return p.Input.EstRows() }

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Input} }

// Explain implements Node.
func (p *ProjectNode) Explain() string {
	return "Project(" + strings.Join(p.Names, ", ") + ")"
}

// SortNode orders its input.
type SortNode struct {
	Input Node
	Keys  []SortItem
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr sql.Expr
	Desc bool
}

// Columns implements Node.
func (s *SortNode) Columns() []string { return s.Input.Columns() }

// EstRows implements Node.
func (s *SortNode) EstRows() float64 { return s.Input.EstRows() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Input} }

// Explain implements Node.
func (s *SortNode) Explain() string { return fmt.Sprintf("Sort(%d keys)", len(s.Keys)) }

// LimitNode truncates its input.
type LimitNode struct {
	Input Node
	N     int
}

// Columns implements Node.
func (l *LimitNode) Columns() []string { return l.Input.Columns() }

// EstRows implements Node.
func (l *LimitNode) EstRows() float64 {
	if float64(l.N) < l.Input.EstRows() {
		return float64(l.N)
	}
	return l.Input.EstRows()
}

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Input} }

// Explain implements Node.
func (l *LimitNode) Explain() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Plan is a classified, costed physical plan.
type Plan struct {
	Root Node
	// Cost is the estimated resource cost in abstract units.
	Cost float64
	// IsAP classifies the query for HTAP routing: AP plans run on RO
	// nodes under the AP resource group, optionally via MPP.
	IsAP bool
	// MPP requests multi-CN fragment execution.
	MPP bool
}

// Explain renders the plan tree.
func (p *Plan) Explain() string { return p.ExplainAnalyze(nil) }

// ExplainAnalyze renders the plan tree like Explain, appending per-node
// runtime statistics supplied by stat (EXPLAIN ANALYZE). stat is a
// callback so the optimizer stays ignorant of how execution is measured;
// a nil or empty return for a node omits the annotation.
func (p *Plan) ExplainAnalyze(stat func(Node) string) string {
	var b strings.Builder
	class := "TP"
	if p.IsAP {
		class = "AP"
	}
	// exec= names the engine. There is one; the field stays because the
	// standing benchmark's set-up matches on it.
	fmt.Fprintf(&b, "-- class=%s cost=%.0f mpp=%v exec=batch\n", class, p.Cost, p.MPP)
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		fmt.Fprintf(&b, "%s%s  (rows≈%d)", strings.Repeat("  ", depth), n.Explain(), int(n.EstRows()))
		if stat != nil {
			if s := stat(n); s != "" {
				fmt.Fprintf(&b, "  (%s)", s)
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}
