package optimizer

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/partition"
	"repro/internal/sql"
	"repro/internal/types"
)

// Errors.
var (
	ErrUnknownColumn   = errors.New("optimizer: unknown column")
	ErrAmbiguousColumn = errors.New("optimizer: ambiguous column")
	ErrUnknownTable    = errors.New("optimizer: unknown table")
)

// Catalog resolves logical tables (implemented by gms.GMS).
type Catalog interface {
	Table(name string) (*partition.Table, error)
}

// Stats supplies table cardinalities for costing.
type Stats interface {
	RowCount(table string) int64
}

// Options tunes the optimizer.
type Options struct {
	// TPCostThreshold classifies plans: cost above it is AP (§VI-B
	// "Based on this cost and an empirical threshold, each request is
	// classified as either an OLTP or an OLAP request").
	TPCostThreshold float64
	// HasColumnIndex reports whether an AP-serving RO node maintains an
	// in-memory column index for the table.
	HasColumnIndex func(table string) bool
	// MPPAvailable enables multi-CN fragment plans for AP queries.
	MPPAvailable bool
	// BatchAvailable is read by nothing: every plan runs on the batch
	// engine. The field stays only because the standing benchmark's
	// source sets it (benchmark/layers.go); it leaves with the next
	// [benchmark] PR.
	BatchAvailable bool
}

func (o Options) withDefaults() Options {
	if o.TPCostThreshold <= 0 {
		o.TPCostThreshold = 5000
	}
	if o.HasColumnIndex == nil {
		o.HasColumnIndex = func(string) bool { return false }
	}
	return o
}

// Optimizer plans SELECT statements against a catalog.
type Optimizer struct {
	cat   Catalog
	stats Stats
	opts  Options
}

// New builds an Optimizer. stats may be nil (defaults to 1000 rows).
func New(cat Catalog, stats Stats, opts Options) *Optimizer {
	return &Optimizer{cat: cat, stats: stats, opts: opts.withDefaults()}
}

func (o *Optimizer) rowCount(table string) float64 {
	if o.stats != nil {
		if n := o.stats.RowCount(table); n > 0 {
			return float64(n)
		}
	}
	return 1000
}

// scope resolves column references against an output layout.
type scope struct{ cols []string }

func (s scope) resolve(c *sql.ColumnRef) (int, error) {
	want := strings.ToLower(c.Name())
	if c.Table != "" {
		for i, col := range s.cols {
			if col == want {
				return i, nil
			}
		}
		return -1, fmt.Errorf("%w: %s in [%s]", ErrUnknownColumn, c.Name(), strings.Join(s.cols, ","))
	}
	// Bare name: unique suffix match.
	found := -1
	suffix := "." + strings.ToLower(c.Column)
	for i, col := range s.cols {
		if strings.HasSuffix(col, suffix) || col == strings.ToLower(c.Column) {
			if found >= 0 {
				return -1, fmt.Errorf("%w: %s", ErrAmbiguousColumn, c.Column)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: %s in [%s]", ErrUnknownColumn, c.Column, strings.Join(s.cols, ","))
	}
	return found, nil
}

// bind resolves every column reference in e against sc, in place.
func (s scope) bind(e sql.Expr) error {
	var firstErr error
	sql.Walk(e, func(n sql.Expr) bool {
		if c, ok := n.(*sql.ColumnRef); ok {
			idx, err := s.resolve(c)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			c.Index = idx
		}
		return true
	})
	return firstErr
}

// tablesIn returns the set of table qualifiers an expression touches,
// resolved through the given alias scopes (bare columns map to the
// unique table that has them).
func tablesIn(e sql.Expr, scans map[string]*ScanNode) map[string]bool {
	out := make(map[string]bool)
	sql.Walk(e, func(n sql.Expr) bool {
		c, ok := n.(*sql.ColumnRef)
		if !ok {
			return true
		}
		if c.Table != "" {
			out[strings.ToLower(c.Table)] = true
			return true
		}
		suffix := "." + strings.ToLower(c.Column)
		for alias, scan := range scans {
			for _, col := range scan.cols {
				if strings.HasSuffix(col, suffix) {
					out[alias] = true
				}
			}
		}
		return true
	})
	return out
}

// conjuncts splits an expression on AND.
func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryOp); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// andAll rebuilds a conjunction (nil for empty).
func andAll(es []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &sql.BinaryOp{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// newScan builds a ScanNode for a table reference.
func (o *Optimizer) newScan(ref sql.TableRef) (*ScanNode, error) {
	t, err := o.cat.Table(ref.Name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, ref.Name)
	}
	alias := strings.ToLower(ref.AliasOrName())
	cols := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		cols[i] = alias + "." + strings.ToLower(c.Name)
	}
	return &ScanNode{Table: t, Alias: alias, cols: cols, rows: o.rowCount(ref.Name)}, nil
}

// PlanSelect builds, binds and costs a physical plan for a SELECT.
func (o *Optimizer) PlanSelect(sel *sql.Select) (*Plan, error) {
	// 1. Scans for every referenced table.
	refs := append([]sql.TableRef{sel.From}, nil...)
	joinOns := []sql.Expr{nil}
	joinOuter := []bool{false}
	for _, jc := range sel.Joins {
		refs = append(refs, jc.Table)
		joinOns = append(joinOns, jc.On)
		joinOuter = append(joinOuter, jc.Left)
	}
	scans := make(map[string]*ScanNode, len(refs))
	order := make([]*ScanNode, len(refs))
	// nullable marks aliases on the NULL-extended side of a LEFT JOIN:
	// WHERE conjuncts on them must stay above the join (pushing them
	// into the scan would defeat null-extension, e.g. the classic
	// anti-join `WHERE right.key IS NULL`).
	nullable := make(map[string]bool)
	for i, ref := range refs {
		scan, err := o.newScan(ref)
		if err != nil {
			return nil, err
		}
		if _, dup := scans[scan.Alias]; dup {
			return nil, fmt.Errorf("optimizer: duplicate table alias %q", scan.Alias)
		}
		scans[scan.Alias] = scan
		order[i] = scan
		if joinOuter[i] {
			nullable[scan.Alias] = true
		}
	}

	// 2. Classify WHERE conjuncts: single-table → pushdown (unless the
	// table is nullable); multi-table or nullable → post-join conditions.
	var joinConds []sql.Expr
	perTable := make(map[string][]sql.Expr)
	for _, c := range conjuncts(sel.Where) {
		ts := tablesIn(c, scans)
		if len(ts) == 1 {
			pushable := true
			for alias := range ts {
				if nullable[alias] {
					pushable = false
				}
			}
			if pushable {
				for alias := range ts {
					perTable[alias] = append(perTable[alias], c)
				}
				continue
			}
		}
		joinConds = append(joinConds, c)
	}
	// ON clauses join the pool too (inner-join semantics; for LEFT JOIN
	// the ON conjuncts stay attached to that join).
	for i := 1; i < len(refs); i++ {
		if joinOuter[i] {
			continue
		}
		for _, c := range conjuncts(joinOns[i]) {
			if isTrueLiteral(c) {
				continue
			}
			ts := tablesIn(c, scans)
			if len(ts) == 1 {
				for alias := range ts {
					perTable[alias] = append(perTable[alias], c)
				}
			} else {
				joinConds = append(joinConds, c)
			}
		}
		joinOns[i] = nil
	}

	// 3. Finish scans: bind pushed filters, prune shards, and fall back
	// to global secondary indexes when the primary key is not pinned.
	for alias, scan := range scans {
		filter := andAll(perTable[alias])
		if filter != nil {
			if err := (scope{cols: scan.cols}).bind(filter); err != nil {
				return nil, err
			}
			scan.Filter = filter
			scan.rows *= selectivityOf(perTable[alias])
		}
		o.pruneShards(scan, perTable[alias])
		if len(scan.PointLookups) == 0 {
			o.prunePartition(scan, perTable[alias])
			o.chooseGSI(scan, perTable[alias])
		}
	}

	// 4. Left-deep join tree in FROM order.
	var root Node = order[0]
	joined := map[string]bool{order[0].Alias: true}
	for i := 1; i < len(order); i++ {
		right := order[i]
		var conds []sql.Expr
		if joinOuter[i] {
			conds = conjuncts(joinOns[i])
		} else {
			// Pull applicable join conditions: both sides covered.
			var rest []sql.Expr
			for _, c := range joinConds {
				ts := tablesIn(c, scans)
				ok := true
				for a := range ts {
					if a != right.Alias && !joined[a] {
						ok = false
					}
				}
				if ok && ts[right.Alias] {
					conds = append(conds, c)
				} else {
					rest = append(rest, c)
				}
			}
			joinConds = rest
		}
		node, err := o.buildJoin(root, right, conds, joinOuter[i])
		if err != nil {
			return nil, err
		}
		root = node
		joined[right.Alias] = true
	}
	// Leftover multi-table conditions (e.g. comma-join predicates whose
	// tables only became jointly visible at the end) apply as filters.
	if len(joinConds) > 0 {
		pred := andAll(joinConds)
		if err := (scope{cols: root.Columns()}).bind(pred); err != nil {
			return nil, err
		}
		root = &FilterNode{Input: root, Pred: pred}
	}

	// 5. Aggregation / projection / having / order / limit.
	root, err := o.finishPlan(root, sel)
	if err != nil {
		return nil, err
	}

	// 6. Cost, classify, choose stores.
	plan := &Plan{Root: root}
	plan.Cost = costOf(root)
	plan.IsAP = plan.Cost > o.opts.TPCostThreshold
	if plan.IsAP {
		o.applyAPChoices(plan)
	}
	return plan, nil
}

func isTrueLiteral(e sql.Expr) bool {
	l, ok := e.(*sql.Literal)
	return ok && l.Val.K == types.KindBool && l.Val.I == 1
}

// buildJoin assembles a join node, extracting equi-keys.
func (o *Optimizer) buildJoin(left Node, right *ScanNode, conds []sql.Expr, outer bool) (Node, error) {
	leftScope := scope{cols: left.Columns()}
	rightScope := scope{cols: right.Columns()}
	combined := scope{cols: append(append([]string{}, left.Columns()...), right.Columns()...)}

	j := &JoinNode{Left: left, Right: right, Outer: outer}
	var residual []sql.Expr
	for _, c := range conds {
		if isTrueLiteral(c) {
			continue
		}
		if b, ok := c.(*sql.BinaryOp); ok && b.Op == "=" {
			lc, lok := b.L.(*sql.ColumnRef)
			rc, rok := b.R.(*sql.ColumnRef)
			if lok && rok {
				// Try L→left, R→right then the swap.
				lIdx, lErr := leftScope.resolve(lc)
				rIdx, rErr := rightScope.resolve(rc)
				if lErr == nil && rErr == nil {
					j.LeftKeys = append(j.LeftKeys, &sql.ColumnRef{Column: lc.Column, Index: lIdx})
					j.RightKeys = append(j.RightKeys, &sql.ColumnRef{Column: rc.Column, Index: rIdx})
					continue
				}
				lIdx, lErr = leftScope.resolve(rc)
				rIdx, rErr = rightScope.resolve(lc)
				if lErr == nil && rErr == nil {
					j.LeftKeys = append(j.LeftKeys, &sql.ColumnRef{Column: rc.Column, Index: lIdx})
					j.RightKeys = append(j.RightKeys, &sql.ColumnRef{Column: lc.Column, Index: rIdx})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	if res := andAll(residual); res != nil {
		if err := combined.bind(res); err != nil {
			return nil, err
		}
		j.On = res
	}
	// Partition-wise join detection (§II-B): both sides in one table
	// group, equi-keys cover the partition (primary) key columns.
	if ls, ok := left.(*ScanNode); ok && len(j.LeftKeys) > 0 {
		if ls.Table.Group == right.Table.Group && samePartitionKeys(j, ls, right) {
			j.PartitionWise = true
		}
	}
	// Cardinality: FK-ish assumption — the probe side keeps its size.
	j.rows = left.EstRows()
	if len(j.LeftKeys) == 0 {
		j.rows = left.EstRows() * right.EstRows() * defaultSelectivity
	}
	return j, nil
}

// samePartitionKeys checks that the join keys align with both tables'
// partition keys.
func samePartitionKeys(j *JoinNode, l, r *ScanNode) bool {
	partOf := func(t *partition.Table, keys []sql.Expr) bool {
		if len(keys) < len(t.PartCols) {
			return false
		}
		covered := make(map[int]bool)
		for _, k := range keys {
			if c, ok := k.(*sql.ColumnRef); ok {
				covered[c.Index] = true
			}
		}
		for _, pc := range t.PartCols {
			if !covered[pc] {
				return false
			}
		}
		return true
	}
	// Scan columns are schema order (no projection), so key indexes map
	// straight to schema positions; join keys must cover BOTH partition
	// keys for equal values to colocate.
	return partOf(l.Table, j.LeftKeys) && partOf(r.Table, j.RightKeys)
}

// chooseGSI routes a scan through a global secondary index when the
// pushed conjuncts pin equality literals on the index's leading columns
// (§II-B). Clustered indexes are preferred: they avoid the scattered
// primary-key reads a non-clustered hit must perform.
func (o *Optimizer) chooseGSI(scan *ScanNode, conds []sql.Expr) {
	eq := make(map[int]types.Value) // schema col -> literal
	equalityLiterals(conds, eq)
	if len(eq) == 0 {
		return
	}
	var best *partition.GlobalIndex
	var bestVals []types.Value
	for _, gi := range scan.Table.Indexes {
		vals := make([]types.Value, 0, len(gi.Cols))
		for _, ci := range gi.Cols {
			v, ok := eq[ci]
			if !ok {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) != len(gi.Cols) {
			continue // only full-prefix equality pins one hidden shard
		}
		// Non-clustered hits look up base rows by PK, which requires
		// PK-inferable routing on the base table.
		if !gi.Clustered && !scan.Table.PartitionedByPK() {
			continue
		}
		if best == nil || (gi.Clustered && !best.Clustered) {
			best, bestVals = gi, vals
		}
	}
	if best == nil {
		return
	}
	scan.GSI = best
	scan.GSIVals = bestVals
	scan.Shards = []int{best.ShardOfIndexedValues(bestVals...)}
}

// equalityLiterals adds the bound `col = literal` conjuncts to eq. The
// caller makes eq, so a small map stays on its stack.
func equalityLiterals(conds []sql.Expr, eq map[int]types.Value) {
	for _, c := range conds {
		b, ok := c.(*sql.BinaryOp)
		if !ok || b.Op != "=" {
			continue
		}
		col, okc := b.L.(*sql.ColumnRef)
		lit, okl := b.R.(*sql.Literal)
		if !okc || !okl {
			col, okc = b.R.(*sql.ColumnRef)
			lit, okl = b.L.(*sql.Literal)
		}
		if okc && okl && col.Index >= 0 {
			eq[col.Index] = lit.Val
		}
	}
}

// prunePartition pins the scan to one shard when equality literals
// cover the partition key (PARTITION BY pruning for tables whose
// partition key differs from the primary key).
func (o *Optimizer) prunePartition(scan *ScanNode, conds []sql.Expr) {
	if scan.Shards != nil || scan.Table.PartitionedByPK() {
		return // PK pruning already handles the common case
	}
	eq := make(map[int]types.Value)
	equalityLiterals(conds, eq)
	vals := make([]types.Value, 0, len(scan.Table.PartCols))
	for _, ci := range scan.Table.PartCols {
		v, ok := eq[ci]
		if !ok {
			return
		}
		vals = append(vals, v)
	}
	scan.Shards = []int{types.HashPartition(types.EncodeKey(nil, vals...), scan.Table.Shards)}
	scan.rows /= float64(scan.Table.Shards)
}

// pruneShards analyzes pushed conjuncts for full-PK equality and
// replaces the scan with point lookups on the owning shards.
func (o *Optimizer) pruneShards(scan *ScanNode, conds []sql.Expr) {
	if !scan.Table.PartitionedByPK() {
		return // the shard cannot be inferred from the PK alone
	}
	schema := scan.Table.Schema
	if len(schema.PKCols) != 1 {
		// Composite PK: equality conjuncts must cover every PK column;
		// the residual filter stays on the scan, so over-approximating
		// here is safe.
		eq := make(map[int]types.Value)
		equalityLiterals(conds, eq)
		vals := make([]types.Value, 0, len(schema.PKCols))
		for _, ci := range schema.PKCols {
			v, ok := eq[ci]
			if !ok {
				return
			}
			vals = append(vals, v)
		}
		pk := types.EncodeKey(nil, vals...)
		scan.PointLookups = [][]byte{pk}
		scan.Shards = []int{scan.Table.ShardOfPK(pk)}
		scan.rows = 1
		return
	}
	pkIdx := schema.PKCols[0]
	for _, c := range conds {
		switch n := c.(type) {
		case *sql.BinaryOp:
			if n.Op != "=" {
				continue
			}
			col, okc := n.L.(*sql.ColumnRef)
			lit, okl := n.R.(*sql.Literal)
			if !okc || !okl {
				col, okc = n.R.(*sql.ColumnRef)
				lit, okl = n.L.(*sql.Literal)
			}
			if okc && okl && col.Index == pkIdx {
				pk := types.EncodeKey(nil, lit.Val)
				scan.PointLookups = [][]byte{pk}
				scan.Shards = []int{scan.Table.ShardOfPK(pk)}
				scan.rows = 1
				return
			}
		case *sql.InList:
			col, okc := n.E.(*sql.ColumnRef)
			if !okc || n.Not || col.Index != pkIdx {
				continue
			}
			if pks, shards := inListRouting(scan.Table, n.Items); pks != nil {
				scan.PointLookups, scan.Shards = pks, shards
				scan.rows = float64(len(pks))
				return
			}
		}
	}
}

// inListRouting routes `pk IN (items)`: the distinct encoded keys in
// first-seen order (IN (1, 1) must not read the row twice) and the
// ascending shards that own them, or nil when an item is not a literal.
// The keys are subslices of one arena sized once, capped so that no
// append through one can reach the next; duplicates are found on a
// sorted permutation instead of a map, so a routing costs the same few
// allocations whatever the list length.
func inListRouting(t *partition.Table, items []sql.Expr) (pks [][]byte, shards []int) {
	size := 0
	for _, item := range items {
		lit, ok := item.(*sql.Literal)
		if !ok {
			return nil, nil
		}
		size += types.KeyWidth(lit.Val)
	}
	arena := make([]byte, 0, size)
	pks = make([][]byte, len(items))
	for i, item := range items {
		start := len(arena)
		arena = types.EncodeKey(arena, item.(*sql.Literal).Val)
		pks[i] = arena[start:len(arena):len(arena)]
	}
	// order lists key positions by key, equal keys by position, so every
	// later copy of a key directly follows its first; it is then reused
	// for the shards.
	order := make([]int, len(pks))
	for i := range order {
		order[i] = i
	}
	if len(order) > 1 {
		slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(pks[a], pks[b]) })
		prev := pks[order[0]]
		for _, k := range order[1:] {
			if bytes.Equal(pks[k], prev) {
				pks[k] = nil
			} else {
				prev = pks[k]
			}
		}
		pks = slices.DeleteFunc(pks, func(pk []byte) bool { return pk == nil })
	}
	shards = order[:len(pks)]
	for i, pk := range pks {
		shards[i] = t.ShardOfPK(pk)
	}
	slices.Sort(shards)
	return pks, slices.Compact(shards)
}
