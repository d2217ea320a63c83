package core

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/dn"
	"repro/internal/partition"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

// autoInc feeds implicit primary keys. One global sequence is enough for
// the simulation (GMS hosts sequences in production, §II-A).
var autoInc atomic.Int64

// execInsert evaluates row expressions, routes each row to its shard's
// DN, and maintains global secondary indexes in the same distributed
// transaction (§II-B: "the primary key index and related secondary
// indexes are updated in a single distributed transaction").
func (s *Session) execInsert(st *sql.Insert) (*Result, error) {
	t, err := s.cn.cluster.GMS.Table(st.Table)
	if err != nil {
		return nil, err
	}
	// Map the statement's column list to schema positions.
	colPos, err := insertColumnOrder(t, st.Columns)
	if err != nil {
		return nil, err
	}
	tx, done, err := s.txnFor()
	if err != nil {
		return nil, err
	}
	n, execErr := func() (int, error) {
		var batch writeBatch
		count := 0
		for _, exprRow := range st.Rows {
			if len(exprRow) != len(colPos) {
				return count, fmt.Errorf("core: INSERT arity %d, want %d", len(exprRow), len(colPos))
			}
			row := make(types.Row, len(t.Schema.Columns))
			for i, e := range exprRow {
				v, err := sql.Eval(e, nil)
				if err != nil {
					return count, err
				}
				row[colPos[i]] = v
			}
			if t.Schema.ImplicitPK {
				row[len(row)-1] = types.Int(autoInc.Add(1))
			}
			if err := s.stageInsert(&batch, t, row); err != nil {
				return count, err
			}
			count++
		}
		// One MultiWrite per touched DN carries the whole multi-row
		// INSERT including index maintenance.
		if err := batch.flush(tx); err != nil {
			return 0, err
		}
		return count, nil
	}()
	if err := done(execErr); err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// writeBatch accumulates one DML statement's mutations per DN so each
// touched DN receives a single MultiWrite RPC. Statement order is
// preserved within each DN — what matters for correctness, since two
// operations on the same key always route to the same DN (GSI
// delete-then-insert pairs stay ordered).
type writeBatch struct {
	// groups holds one entry per touched DN in first-staged order (the
	// deterministic fan-out order). A statement touches a DN or two, so a
	// scan beats a map, and the first two groups, with their first items,
	// live in the batch itself.
	groups []dnWrites
	inline [2]dnWrites
	first  [2]dn.WriteItem
}

// dnWrites is one DN's share of a writeBatch.
type dnWrites struct {
	dn    string
	items []dn.WriteItem
}

func (b *writeBatch) add(dnName string, item dn.WriteItem) {
	for i := range b.groups {
		if b.groups[i].dn == dnName {
			b.groups[i].items = append(b.groups[i].items, item)
			return
		}
	}
	if i := len(b.groups); i < len(b.inline) {
		b.first[i] = item
		b.groups = append(b.inline[:i], dnWrites{dn: dnName, items: b.first[i : i+1 : i+1]})
		return
	}
	b.groups = append(b.groups, dnWrites{dn: dnName, items: []dn.WriteItem{item}})
}

// flush issues one MultiWrite per DN, all DNs in parallel (the write
// analogue of the point-read fan-out). On error the statement fails and
// the caller's transaction handling aborts the branches, rolling back
// any partially applied batch.
func (b *writeBatch) flush(tx *txn.Tx) error {
	switch len(b.groups) {
	case 0:
		return nil
	case 1:
		return tx.MultiWrite(b.groups[0].dn, b.groups[0].items)
	}
	errs := make(chan error, len(b.groups))
	for _, g := range b.groups {
		go func(g dnWrites) { errs <- tx.MultiWrite(g.dn, g.items) }(g)
	}
	var firstErr error
	for range b.groups {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// stageInsert stages one row plus its index rows into the batch.
func (s *Session) stageInsert(b *writeBatch, t *partition.Table, row types.Row) error {
	shard := t.ShardOfRow(row)
	dnName, err := s.cn.cluster.GMS.DNForShard(t.Name, shard)
	if err != nil {
		return err
	}
	b.add(dnName, dn.WriteItem{Table: t.PhysicalTableID(shard), Op: dn.OpInsert, Row: row})
	s.cn.cluster.GMS.RecordLoad(t.Name, shard, 1)
	for _, gi := range t.Indexes {
		irow := gi.IndexRow(t, row)
		ishard := gi.ShardOfIndexRow(irow)
		idn, err := s.cn.cluster.GMS.DNForShard(t.Name, ishard)
		if err != nil {
			return err
		}
		b.add(idn, dn.WriteItem{Table: gi.PhysicalTableID(ishard), Op: dn.OpInsert, Row: irow})
	}
	return nil
}

// insertColumnOrder maps an INSERT column list to schema positions.
func insertColumnOrder(t *partition.Table, cols []string) ([]int, error) {
	n := len(t.Schema.Columns)
	if t.Schema.ImplicitPK {
		n-- // hidden column is filled by the system
	}
	if len(cols) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		idx := t.Schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("core: unknown column %q in INSERT", c)
		}
		out[i] = idx
	}
	return out, nil
}

// matchRows finds the rows a WHERE clause selects: the PK fast path
// reads exactly the pinned rows; otherwise every shard is scanned with
// the filter pushed down.
func (s *Session) matchRows(tx *txn.Tx, t *partition.Table, where sql.Expr) ([]types.Row, error) {
	filter, points, err := analyzeWhere(t, where)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	if points != nil && !t.PartitionedByPK() {
		// Cannot infer shards from the PK; fall back to the scan path
		// with the whole WHERE re-attached as a filter (analyzeWhere
		// bound it in place, so the DN can evaluate it).
		filter, points = where, nil
	}
	if points != nil {
		// Duplicate IN-list entries match a row once (MySQL semantics);
		// without dedup a DELETE would stage the same key twice and the
		// second delete would fail at the DN.
		seen := make(map[string]struct{}, len(points))
		uniq := points[:0]
		for _, pk := range points {
			if _, dup := seen[string(pk)]; dup {
				continue
			}
			seen[string(pk)] = struct{}{}
			uniq = append(uniq, pk)
		}
		points = uniq
	}
	if points != nil {
		return s.cn.pointRows(&queryCtx{s: s, tx: tx}, t, points, filter, false)
	}
	for shard := 0; shard < t.Shards; shard++ {
		dnName, err := s.cn.cluster.GMS.DNForShard(t.Name, shard)
		if err != nil {
			return nil, err
		}
		resp, err := tx.Scan(dnName, dn.ScanReq{Table: t.PhysicalTableID(shard), Filter: filter})
		if err != nil {
			return nil, err
		}
		out = append(out, resp.Rows...)
	}
	return out, nil
}

// analyzeWhere binds a WHERE clause to the schema layout and extracts
// full-PK point lookups. Returns (residual filter, point PKs).
func analyzeWhere(t *partition.Table, where sql.Expr) (sql.Expr, [][]byte, error) {
	if where == nil {
		return nil, nil, nil
	}
	// Bind columns to schema positions.
	var bindErr error
	sql.Walk(where, func(n sql.Expr) bool {
		if c, ok := n.(*sql.ColumnRef); ok {
			idx := t.Schema.ColIndex(c.Column)
			if idx < 0 {
				bindErr = fmt.Errorf("core: unknown column %q in %q", c.Column, t.Name)
				return false
			}
			if c.Table != "" && !strings.EqualFold(c.Table, t.Name) {
				bindErr = fmt.Errorf("core: qualifier %q does not match %q", c.Table, t.Name)
				return false
			}
			c.Index = idx
		}
		return true
	})
	if bindErr != nil {
		return nil, nil, bindErr
	}
	if len(t.Schema.PKCols) != 1 {
		// Composite PK: a conjunction of equality literals covering every
		// PK column pins one row. The whole WHERE stays as the residual
		// filter (re-checking the PK equalities on the fetched row is
		// cheap and keeps the rewrite trivially safe).
		eq := map[int]types.Value{}
		var collect func(e sql.Expr)
		collect = func(e sql.Expr) {
			b, ok := e.(*sql.BinaryOp)
			if !ok {
				return
			}
			if b.Op == "AND" {
				collect(b.L)
				collect(b.R)
				return
			}
			if b.Op != "=" {
				return
			}
			col, okc := b.L.(*sql.ColumnRef)
			lit, okl := b.R.(*sql.Literal)
			if !okc || !okl {
				col, okc = b.R.(*sql.ColumnRef)
				lit, okl = b.L.(*sql.Literal)
			}
			if okc && okl {
				eq[col.Index] = lit.Val
			}
		}
		collect(where)
		vals := make([]types.Value, 0, len(t.Schema.PKCols))
		for _, ci := range t.Schema.PKCols {
			v, ok := eq[ci]
			if !ok {
				return where, nil, nil
			}
			vals = append(vals, v)
		}
		return where, [][]byte{types.EncodeKey(nil, vals...)}, nil
	}
	pkIdx := t.Schema.PKCols[0]
	// Single top-level `pk = lit` or `pk IN (...)`, possibly ANDed with
	// residual conditions.
	var points [][]byte
	var strip func(e sql.Expr) sql.Expr
	strip = func(e sql.Expr) sql.Expr {
		switch n := e.(type) {
		case *sql.BinaryOp:
			if n.Op == "AND" {
				l := strip(n.L)
				r := strip(n.R)
				switch {
				case l == nil && r == nil:
					return nil
				case l == nil:
					return r
				case r == nil:
					return l
				default:
					return &sql.BinaryOp{Op: "AND", L: l, R: r}
				}
			}
			if n.Op == "=" && points == nil {
				if c, ok := n.L.(*sql.ColumnRef); ok && c.Index == pkIdx {
					if lit, ok := n.R.(*sql.Literal); ok {
						points = [][]byte{types.EncodeKey(nil, lit.Val)}
						return nil
					}
				}
				if c, ok := n.R.(*sql.ColumnRef); ok && c.Index == pkIdx {
					if lit, ok := n.L.(*sql.Literal); ok {
						points = [][]byte{types.EncodeKey(nil, lit.Val)}
						return nil
					}
				}
			}
			return e
		case *sql.InList:
			if points != nil || n.Not {
				return e
			}
			c, ok := n.E.(*sql.ColumnRef)
			if !ok || c.Index != pkIdx {
				return e
			}
			var pks [][]byte
			for _, item := range n.Items {
				lit, ok := item.(*sql.Literal)
				if !ok {
					return e
				}
				pks = append(pks, types.EncodeKey(nil, lit.Val))
			}
			points = pks
			return nil
		default:
			return e
		}
	}
	residual := strip(where)
	return residual, points, nil
}

// execUpdate applies SET assignments to matching rows, maintaining
// global indexes (delete old entry + insert new when indexed columns or
// coverage change).
func (s *Session) execUpdate(st *sql.Update) (*Result, error) {
	t, err := s.cn.cluster.GMS.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Where, err = s.rewriteSubqueries(st.Where); err != nil {
		return nil, err
	}
	// Bind SET expressions against the schema.
	sets := make([]struct {
		col int
		e   sql.Expr
	}, len(st.Sets))
	moves := false // a partition-key column is set: a row may change shard
	for i, a := range st.Sets {
		idx := t.Schema.ColIndex(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("core: unknown column %q", a.Column)
		}
		if containsPK(t, idx) {
			return nil, fmt.Errorf("core: updating primary key columns is not supported")
		}
		if err := bindToSchema(t, a.Value); err != nil {
			return nil, err
		}
		sets[i].col = idx
		sets[i].e = a.Value
		moves = moves || slices.Contains(t.PartCols, idx)
	}
	tx, done, err := s.txnFor()
	if err != nil {
		return nil, err
	}
	n, execErr := func() (int, error) {
		rows, err := s.matchRows(tx, t, st.Where)
		if err != nil {
			return 0, err
		}
		var batch writeBatch
		for i, old := range rows {
			newRow := old.Clone()
			for _, a := range sets {
				v, err := sql.Eval(a.e, old)
				if err != nil {
					return i, err
				}
				newRow[a.col] = v
			}
			if err := s.stageUpdateRow(&batch, t, old, newRow, moves); err != nil {
				return i, err
			}
			if err := s.stageRefreshIndexes(&batch, t, old, newRow); err != nil {
				return i, err
			}
		}
		if err := batch.flush(tx); err != nil {
			return 0, err
		}
		return len(rows), nil
	}()
	if err := done(execErr); err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// stageUpdateRow stages new in place of old. When moves is set, a row
// whose new partition key routes to another shard moves there: a delete
// on the old shard and an insert on the new one, as stageRefreshIndexes
// moves an index row.
func (s *Session) stageUpdateRow(b *writeBatch, t *partition.Table, old, new types.Row, moves bool) error {
	nshard := t.ShardOfRow(new)
	oshard := nshard
	if moves {
		oshard = t.ShardOfRow(old)
	}
	ndn, err := s.cn.cluster.GMS.DNForShard(t.Name, nshard)
	if err != nil {
		return err
	}
	if oshard == nshard {
		b.add(ndn, dn.WriteItem{Table: t.PhysicalTableID(nshard), Op: dn.OpUpdate, Row: new})
		return nil
	}
	odn, err := s.cn.cluster.GMS.DNForShard(t.Name, oshard)
	if err != nil {
		return err
	}
	b.add(odn, dn.WriteItem{Table: t.PhysicalTableID(oshard), Op: dn.OpDelete, PK: t.Schema.PKKey(old)})
	b.add(ndn, dn.WriteItem{Table: t.PhysicalTableID(nshard), Op: dn.OpInsert, Row: new})
	return nil
}

func containsPK(t *partition.Table, col int) bool {
	for _, pk := range t.Schema.PKCols {
		if pk == col {
			return true
		}
	}
	return false
}

func bindToSchema(t *partition.Table, e sql.Expr) error {
	var bindErr error
	sql.Walk(e, func(n sql.Expr) bool {
		if c, ok := n.(*sql.ColumnRef); ok {
			idx := t.Schema.ColIndex(c.Column)
			if idx < 0 {
				bindErr = fmt.Errorf("core: unknown column %q", c.Column)
				return false
			}
			c.Index = idx
		}
		return true
	})
	return bindErr
}

// stageRefreshIndexes maintains GSIs across an update: the
// delete-then-insert pair is staged in order (same key → same DN → the
// DN applies them in order).
func (s *Session) stageRefreshIndexes(b *writeBatch, t *partition.Table, old, new types.Row) error {
	for _, gi := range t.Indexes {
		oldIdx := gi.IndexRow(t, old)
		newIdx := gi.IndexRow(t, new)
		same := len(oldIdx) == len(newIdx)
		if same {
			for i := range oldIdx {
				if oldIdx[i].Compare(newIdx[i]) != 0 {
					same = false
					break
				}
			}
		}
		if same {
			continue
		}
		oshard := gi.ShardOfIndexRow(oldIdx)
		odn, err := s.cn.cluster.GMS.DNForShard(t.Name, oshard)
		if err != nil {
			return err
		}
		b.add(odn, dn.WriteItem{Table: gi.PhysicalTableID(oshard), Op: dn.OpDelete, PK: gi.Schema.PKKey(oldIdx)})
		nshard := gi.ShardOfIndexRow(newIdx)
		ndn, err := s.cn.cluster.GMS.DNForShard(t.Name, nshard)
		if err != nil {
			return err
		}
		b.add(ndn, dn.WriteItem{Table: gi.PhysicalTableID(nshard), Op: dn.OpInsert, Row: newIdx})
	}
	return nil
}

// execDelete removes matching rows and their index entries.
func (s *Session) execDelete(st *sql.Delete) (*Result, error) {
	t, err := s.cn.cluster.GMS.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Where, err = s.rewriteSubqueries(st.Where); err != nil {
		return nil, err
	}
	tx, done, err := s.txnFor()
	if err != nil {
		return nil, err
	}
	n, execErr := func() (int, error) {
		rows, err := s.matchRows(tx, t, st.Where)
		if err != nil {
			return 0, err
		}
		var batch writeBatch
		for i, row := range rows {
			shard := t.ShardOfRow(row)
			dnName, err := s.cn.cluster.GMS.DNForShard(t.Name, shard)
			if err != nil {
				return i, err
			}
			batch.add(dnName, dn.WriteItem{Table: t.PhysicalTableID(shard), Op: dn.OpDelete, PK: t.Schema.PKKey(row)})
			for _, gi := range t.Indexes {
				irow := gi.IndexRow(t, row)
				ishard := gi.ShardOfIndexRow(irow)
				idn, err := s.cn.cluster.GMS.DNForShard(t.Name, ishard)
				if err != nil {
					return i, err
				}
				batch.add(idn, dn.WriteItem{Table: gi.PhysicalTableID(ishard), Op: dn.OpDelete, PK: gi.Schema.PKKey(irow)})
			}
		}
		if err := batch.flush(tx); err != nil {
			return 0, err
		}
		return len(rows), nil
	}()
	if err := done(execErr); err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}
