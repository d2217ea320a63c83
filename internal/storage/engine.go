package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/hlc"
	"repro/internal/types"
	"repro/internal/wal"
)

// Index is a local secondary index (§II-B): partitioned with the table,
// so index maintenance never becomes a distributed transaction. Entries
// map EncodeKey(indexed cols..., pk cols...) -> pk key bytes; readers
// verify visibility against the primary chain, so an index never returns
// phantom rows even though entries are installed before commit.
type Index struct {
	Name string
	Cols []int // column indexes in table schema order
	tree *btree.Tree
}

// Table is one table's storage on this shard: a primary B+Tree of MVCC
// chains plus local secondary indexes.
type Table struct {
	ID     uint32
	Tenant uint32
	Schema *types.Schema

	primary *btree.Tree
	mu      sync.RWMutex
	indexes map[string]*Index

	rows atomic.Int64
}

// RowCount returns the approximate committed row count (maintained on
// commit; used by the optimizer's cost model).
func (t *Table) RowCount() int64 { return t.rows.Load() }

// Engine is the storage engine of one DN shard. All methods are safe for
// concurrent use.
type Engine struct {
	mu     sync.RWMutex
	tables map[uint32]*Table
	byName map[string]uint32

	// txns (txnID -> *Txn) holds open transactions and pinned reads:
	// with horizon it is the snapshot registry (snapshots.go).
	txns    sync.Map
	nextID  atomic.Uint64
	snapMu  sync.Mutex
	horizon atomic.Uint64 // hlc.Timestamp the last vacuum trimmed to

	pool *BufferPool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		tables: make(map[uint32]*Table),
		byName: make(map[string]uint32),
		pool:   NewBufferPool(),
	}
}

// Pool exposes the buffer pool (the DN flushes it bounded by DLSN).
func (e *Engine) Pool() *BufferPool { return e.pool }

// CreateTable registers a table under a tenant.
func (e *Engine) CreateTable(id, tenant uint32, schema *types.Schema) (*Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[id]; dup {
		return nil, fmt.Errorf("%w: id %d", ErrTableExists, id)
	}
	if _, dup := e.byName[schema.Name]; dup {
		return nil, fmt.Errorf("%w: name %q", ErrTableExists, schema.Name)
	}
	t := &Table{ID: id, Tenant: tenant, Schema: schema,
		primary: btree.New(), indexes: make(map[string]*Index)}
	e.tables[id] = t
	e.byName[schema.Name] = id
	return t, nil
}

// DropTable removes a table (tenant migration detaches tables this way).
func (e *Engine) DropTable(id uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tables[id]; ok {
		delete(e.byName, t.Schema.Name)
		delete(e.tables, id)
	}
}

// Table resolves a table by id.
func (e *Engine) Table(id uint32) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownTable, id)
	}
	return t, nil
}

// TableByName resolves a table by name.
func (e *Engine) TableByName(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return e.tables[id], nil
}

// Tables lists all tables (snapshot).
func (e *Engine) Tables() []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	return out
}

// TablesOfTenant lists tables owned by a tenant (PolarDB-MT migration).
func (e *Engine) TablesOfTenant(tenant uint32) []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*Table
	for _, t := range e.tables {
		if t.Tenant == tenant {
			out = append(out, t)
		}
	}
	return out
}

// CreateIndex adds a local secondary index over the named columns and
// backfills it from committed rows.
func (e *Engine) CreateIndex(tableID uint32, name string, cols []string) (*Index, error) {
	t, err := e.Table(tableID)
	if err != nil {
		return nil, err
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		ci := t.Schema.ColIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("storage: no column %q in %q", c, t.Schema.Name)
		}
		colIdx[i] = ci
	}
	idx := &Index{Name: name, Cols: colIdx, tree: btree.New()}
	t.mu.Lock()
	t.indexes[name] = idx
	t.mu.Unlock()
	// Backfill from the latest committed versions.
	t.primary.Ascend(func(pk []byte, v any) bool {
		row, _, ok := v.(*chain).latestCommitted()
		if ok {
			idx.tree.Set(indexKey(idx, t.Schema, row, pk), pk)
		}
		return true
	})
	return idx, nil
}

// indexKey builds the index entry key: indexed columns then the primary
// key for uniqueness.
func indexKey(idx *Index, schema *types.Schema, row types.Row, pk []byte) []byte {
	vals := make([]types.Value, len(idx.Cols))
	for i, c := range idx.Cols {
		vals[i] = row[c]
	}
	key := types.EncodeKey(nil, vals...)
	return append(key, pk...)
}

// getChain returns the MVCC chain at pk, optionally creating it.
func getChain(t *Table, pk []byte, create bool) *chain {
	if v, ok := t.primary.Get(pk); ok {
		return v.(*chain)
	}
	if !create {
		return nil
	}
	c := &chain{}
	// Set returns the previous value on race; re-fetch to be safe.
	if prev, replaced := t.primary.Set(pk, c); replaced {
		return prev.(*chain)
	}
	return c
}

// Get reads the row with the given primary key at the txn's snapshot.
func (e *Engine) Get(txn *Txn, tableID uint32, pk []byte) (types.Row, bool, error) {
	t, err := e.Table(tableID)
	if err != nil {
		return nil, false, err
	}
	c := getChain(t, pk, false)
	if c == nil {
		return nil, false, nil
	}
	row, ok := c.visibleRow(txn, txn.SnapshotTS)
	return row, ok, nil
}

// GetAt reads at an explicit snapshot without a transaction (snapshot
// reads on leaders and replicas). It fails with ErrSnapshotTooOld rather
// than answer from history a vacuum trimmed; a caller that pinned the
// snapshot (Pin) never sees that error.
func (e *Engine) GetAt(tableID uint32, pk []byte, snapshotTS hlc.Timestamp) (types.Row, bool, error) {
	t, err := e.Table(tableID)
	if err != nil {
		return nil, false, err
	}
	var row types.Row
	var ok bool
	if c := getChain(t, pk, false); c != nil {
		row, ok = c.visibleRow(nil, snapshotTS)
	}
	if err := e.checkSnapshot(snapshotTS); err != nil {
		return nil, false, err
	}
	return row, ok, nil
}

// ScanRange streams visible rows with pk in [start, end) in key order.
// nil bounds are open. fn returning false stops the scan.
func (e *Engine) ScanRange(txn *Txn, tableID uint32, start, end []byte,
	fn func(pk []byte, row types.Row) bool) error {
	t, err := e.Table(tableID)
	if err != nil {
		return err
	}
	t.primary.AscendRange(start, end, func(pk []byte, v any) bool {
		row, ok := v.(*chain).visibleRow(txn, txn.SnapshotTS)
		if !ok {
			return true
		}
		return fn(pk, row)
	})
	return nil
}

// ScanRangeAt is ScanRange at an explicit snapshot, with GetAt's
// ErrSnapshotTooOld rule: after that error the rows already streamed to
// fn are not the snapshot's and must be discarded.
func (e *Engine) ScanRangeAt(tableID uint32, start, end []byte, snapshotTS hlc.Timestamp,
	fn func(pk []byte, row types.Row) bool) error {
	t, err := e.Table(tableID)
	if err != nil {
		return err
	}
	t.primary.AscendRange(start, end, func(pk []byte, v any) bool {
		row, ok := v.(*chain).visibleRow(nil, snapshotTS)
		if !ok {
			return true
		}
		return fn(pk, row)
	})
	return e.checkSnapshot(snapshotTS)
}

// IndexScan streams rows whose index key falls in [start, end), verifying
// each candidate against the primary chain at the txn's snapshot.
func (e *Engine) IndexScan(txn *Txn, tableID uint32, indexName string, start, end []byte,
	fn func(pk []byte, row types.Row) bool) error {
	t, err := e.Table(tableID)
	if err != nil {
		return err
	}
	t.mu.RLock()
	idx, ok := t.indexes[indexName]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIndex, indexName)
	}
	idx.tree.AscendRange(start, end, func(key []byte, v any) bool {
		pk := v.([]byte)
		c := getChain(t, pk, false)
		if c == nil {
			return true
		}
		row, ok := c.visibleRow(txn, txn.SnapshotTS)
		if !ok {
			return true
		}
		// Verify the row still matches the index entry (entries persist
		// across updates until vacuum).
		if !bytes.Equal(indexKey(idx, t.Schema, row, pk), key) {
			return true
		}
		return fn(pk, row)
	})
	return nil
}

// write installs a version and records redo + index entries.
func (e *Engine) write(txn *Txn, t *Table, pk []byte, row types.Row, recType wal.RecordType) error {
	if txn.Status() != TxnActive {
		return fmt.Errorf("%w: txn %d is %v", ErrTxnNotActive, txn.ID, txn.Status())
	}
	c := getChain(t, pk, true)
	v, err := c.install(txn, row)
	if err != nil {
		return err
	}
	txn.mu.Lock()
	txn.writes = append(txn.writes, v)
	txn.mu.Unlock()

	var payload []byte
	if row != nil {
		payload = types.EncodeRow(nil, row)
		// Index entries are installed eagerly; readers verify via the
		// primary chain, so uncommitted entries are harmless.
		t.mu.RLock()
		for _, idx := range t.indexes {
			idx.tree.Set(indexKey(idx, t.Schema, row, pk), pk)
		}
		t.mu.RUnlock()
	}
	txn.appendRedo(wal.Record{
		Type: recType, TenantID: t.Tenant, TableID: t.ID, TxnID: txn.ID,
		Key: append([]byte(nil), pk...), Payload: payload,
	})
	return nil
}

// Insert adds a new row; the primary key must not be visible.
func (e *Engine) Insert(txn *Txn, tableID uint32, row types.Row) error {
	t, err := e.Table(tableID)
	if err != nil {
		return err
	}
	if err := t.Schema.Validate(row); err != nil {
		return err
	}
	pk := t.Schema.PKKey(row)
	if c := getChain(t, pk, false); c != nil {
		if _, exists := c.visibleRow(txn, txn.SnapshotTS); exists {
			return fmt.Errorf("%w: %q in %q", ErrDuplicateKey, pk, t.Schema.Name)
		}
	}
	if err := e.write(txn, t, pk, row.Clone(), wal.RecInsert); err != nil {
		return err
	}
	t.rows.Add(1)
	return nil
}

// Update replaces the row at the given primary key. The row must be
// visible at the txn's snapshot.
func (e *Engine) Update(txn *Txn, tableID uint32, row types.Row) error {
	t, err := e.Table(tableID)
	if err != nil {
		return err
	}
	if err := t.Schema.Validate(row); err != nil {
		return err
	}
	pk := t.Schema.PKKey(row)
	c := getChain(t, pk, false)
	if c == nil {
		return fmt.Errorf("%w: update %q", ErrKeyNotFound, pk)
	}
	if _, exists := c.visibleRow(txn, txn.SnapshotTS); !exists {
		return fmt.Errorf("%w: update %q", ErrKeyNotFound, pk)
	}
	return e.write(txn, t, pk, row.Clone(), wal.RecUpdate)
}

// Delete tombstones the row with the given primary key.
func (e *Engine) Delete(txn *Txn, tableID uint32, pk []byte) error {
	t, err := e.Table(tableID)
	if err != nil {
		return err
	}
	c := getChain(t, pk, false)
	if c == nil {
		return fmt.Errorf("%w: delete %q", ErrKeyNotFound, pk)
	}
	if _, exists := c.visibleRow(txn, txn.SnapshotTS); !exists {
		return fmt.Errorf("%w: delete %q", ErrKeyNotFound, pk)
	}
	if err := e.write(txn, t, pk, nil, wal.RecDelete); err != nil {
		return err
	}
	t.rows.Add(-1)
	return nil
}

// Prepare moves the transaction to PREPARED at prepareTS after write
// validation (conflicts were validated at install time; Prepare re-checks
// the state machine). This is phase one of 2PC on this participant.
// globalID is the coordinator's transaction ID (redo records carry
// engine-local txn IDs, so cross-instance resolution needs the global ID)
// and primary names the primary branch instance — the branch holding the
// authoritative commit decision. Both are made durable in the prepare
// record so a failed-over leader can still resolve the branch.
func (e *Engine) Prepare(txn *Txn, prepareTS hlc.Timestamp, globalID uint64, primary string) error {
	if err := txn.casStatus(TxnActive, TxnPrepared); err != nil {
		return err
	}
	txn.prepareTS.Store(uint64(prepareTS))
	txn.appendRedo(wal.Record{Type: wal.RecPrepare, TxnID: txn.ID,
		Payload: EncodePrepareMeta(prepareTS, globalID, primary)})
	return nil
}

// Commit finalizes at commitTS from either ACTIVE (1PC) or PREPARED
// (2PC). It atomically publishes all the transaction's versions: their
// visibility flows from the txn's status+commitTS.
func (e *Engine) Commit(txn *Txn, commitTS hlc.Timestamp) error {
	txn.commitTS.Store(uint64(commitTS))
	if err := txn.casStatus(TxnPrepared, TxnCommitted); err != nil {
		if err2 := txn.casStatus(TxnActive, TxnCommitted); err2 != nil {
			return err
		}
	}
	txn.appendRedo(wal.Record{Type: wal.RecCommit, TxnID: txn.ID,
		Payload: encodeTS(commitTS)})
	close(txn.done)
	e.txns.Delete(txn.ID)
	return nil
}

// Abort rolls the transaction back from ACTIVE or PREPARED.
func (e *Engine) Abort(txn *Txn) error {
	if err := txn.casStatus(TxnActive, TxnAborted); err != nil {
		if err2 := txn.casStatus(TxnPrepared, TxnAborted); err2 != nil {
			return err
		}
	}
	// Installed versions stay in their chains with status ABORTED:
	// readers and writers skip them (walkVisible / install), and Vacuum
	// physically reclaims them. Roll back the row counters moved by this
	// txn's inserts/deletes (they are estimates for costing).
	txn.mu.Lock()
	adjust := make(map[uint32]int64)
	for _, rec := range txn.redo {
		switch rec.Type {
		case wal.RecInsert:
			adjust[rec.TableID]--
		case wal.RecDelete:
			adjust[rec.TableID]++
		}
	}
	txn.redo = nil
	txn.writes = nil
	txn.mu.Unlock()
	for tableID, d := range adjust {
		if t, err := e.Table(tableID); err == nil {
			t.rows.Add(d)
		}
	}
	close(txn.done)
	e.txns.Delete(txn.ID)
	return nil
}

func encodeTS(ts hlc.Timestamp) []byte {
	return []byte{
		byte(ts >> 56), byte(ts >> 48), byte(ts >> 40), byte(ts >> 32),
		byte(ts >> 24), byte(ts >> 16), byte(ts >> 8), byte(ts),
	}
}

// ErrShortPayload is a prepare or commit record whose payload is shorter
// than its fixed fields. Every producer writes them in full, so such a
// record is corrupt; decoding it as timestamp 0 would commit below every
// snapshot.
var ErrShortPayload = errors.New("storage: redo payload shorter than its fixed fields")

// DecodeTS parses a timestamp payload from prepare/commit redo records.
func DecodeTS(b []byte) (hlc.Timestamp, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("%w: %d-byte timestamp", ErrShortPayload, len(b))
	}
	return hlc.Timestamp(uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 |
		uint64(b[3])<<32 | uint64(b[4])<<24 | uint64(b[5])<<16 |
		uint64(b[6])<<8 | uint64(b[7])), nil
}

// EncodeTS encodes a timestamp for commit/commit-point redo payloads.
func EncodeTS(ts hlc.Timestamp) []byte { return encodeTS(ts) }

// EncodePrepareMeta encodes a RecPrepare payload: the 8-byte prepare
// timestamp, the 8-byte global (coordinator) transaction ID, then the
// primary branch instance name.
func EncodePrepareMeta(ts hlc.Timestamp, globalID uint64, primary string) []byte {
	b := encodeTS(ts)
	b = append(b,
		byte(globalID>>56), byte(globalID>>48), byte(globalID>>40), byte(globalID>>32),
		byte(globalID>>24), byte(globalID>>16), byte(globalID>>8), byte(globalID))
	return append(b, primary...)
}

// DecodePrepareMeta parses a RecPrepare payload back into its prepare
// timestamp, global transaction ID, and primary branch instance name. A
// payload shorter than the 16 bytes of timestamp and ID is refused.
func DecodePrepareMeta(b []byte) (ts hlc.Timestamp, globalID uint64, primary string, err error) {
	if len(b) < 16 {
		return 0, 0, "", fmt.Errorf("%w: %d-byte prepare record", ErrShortPayload, len(b))
	}
	ts, _ = DecodeTS(b)
	globalID = uint64(b[8])<<56 | uint64(b[9])<<48 | uint64(b[10])<<40 |
		uint64(b[11])<<32 | uint64(b[12])<<24 | uint64(b[13])<<16 |
		uint64(b[14])<<8 | uint64(b[15])
	return ts, globalID, string(b[16:]), nil
}
