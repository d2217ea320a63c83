package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/hlc"
	"repro/internal/types"
)

// version is one entry in a row's MVCC chain.
type version struct {
	// row is the after-image; nil marks a delete tombstone.
	row types.Row
	// txn is the writer. After commit the commit timestamp is read from
	// txn (a single source of truth, so commit atomically publishes every
	// version the transaction wrote).
	txn *Txn
	// next is the previous (older) version. Readers walk the chain
	// without the chain lock while vacuum cuts it, hence atomic.
	next atomic.Pointer[version]
}

// chain is a row's version chain plus its write lock. The head is the
// newest version. At most one uncommitted version can sit at the head —
// that is the row-lock discipline InnoDB enforces with record locks; here
// a second writer fails fast with ErrWriteConflict (no-wait policy). That
// also aborts writers that could have gone ahead had they waited for a
// head writer that then aborted, and nothing retries them.
type chain struct {
	mu   sync.Mutex
	head *version
}

// visibleRow walks the chain and returns the newest row version visible
// at snapshotTS for reader (§IV visibility):
//
//   - committed version: visible iff commit_ts <= snapshot_ts;
//   - PREPARED version: the reader must wait for the writer to finish,
//     then re-evaluate (the commit timestamp is uncertain);
//   - ACTIVE version from another txn: invisible;
//   - reader's own writes: always visible (read-your-writes).
//
// It returns (nil, false) when no version is visible (row absent or
// tombstoned at this snapshot).
func (c *chain) visibleRow(reader *Txn, snapshotTS hlc.Timestamp) (types.Row, bool) {
	for {
		c.mu.Lock()
		v := c.head
		c.mu.Unlock()
		row, ok, wait := walkVisible(v, reader, snapshotTS)
		if wait == nil {
			return row, ok
		}
		// §IV case 2: the version is PREPARED; block until the writer
		// commits or aborts, then retry the walk.
		<-wait
	}
}

// walkVisible scans versions newest-first. It returns wait != nil when a
// PREPARED version must be awaited before visibility can be decided.
func walkVisible(v *version, reader *Txn, snapshotTS hlc.Timestamp) (types.Row, bool, <-chan struct{}) {
	for ; v != nil; v = v.next.Load() {
		w := v.txn
		if reader != nil && w == reader {
			// Own write.
			return v.row, v.row != nil, nil
		}
		switch w.Status() {
		case TxnCommitted:
			if w.CommitTS() <= snapshotTS {
				return v.row, v.row != nil, nil
			}
			// Committed after our snapshot: look further back.
		case TxnPrepared:
			// Uncertain commit timestamp. If even the *prepare* timestamp
			// is above our snapshot, the final commit_ts (>= prepare_ts)
			// can only be higher, so the version is invisible without
			// waiting — the Clock-SI/HLC-SI fast path. A zero prepare_ts
			// is a writer between its flip and its draw: wait.
			if w.PrepareTS() > snapshotTS {
				continue
			}
			return nil, false, w.Done()
		case TxnActive:
			// §IV case 3: ACTIVE writers are invisible to us. Our snapshot
			// is in the clock already, and a writer leaves ACTIVE before it
			// draws its timestamp (Prepare, CommitOnePhase), so that lands
			// above the snapshot.
			continue
		case TxnAborted:
			continue
		}
	}
	return nil, false, nil
}

// install pushes a new version for writer onto the chain, enforcing SI
// write-write conflict rules:
//
//   - another in-flight (ACTIVE/PREPARED) writer at the head → conflict;
//   - a committed head version with commit_ts > writer's snapshot_ts →
//     first-committer-wins conflict.
func (c *chain) install(writer *Txn, row types.Row) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := c.head; v != nil; v = v.next.Load() {
		w := v.txn
		if w == writer {
			// Second write by the same txn to the same row: stack over
			// our own earlier version.
			break
		}
		switch w.Status() {
		case TxnActive, TxnPrepared:
			return ErrWriteConflict
		case TxnCommitted:
			if w.CommitTS() > writer.SnapshotTS {
				return ErrWriteConflict
			}
			// Committed before our snapshot: safe to overwrite.
		case TxnAborted:
			// Skip aborted garbage and check the next version down.
			continue
		}
		break
	}
	nv := &version{row: row, txn: writer}
	nv.next.Store(c.head)
	c.head = nv
	return nil
}

// latestCommitted returns the newest committed row (for GC decisions and
// index verification). ok is false for tombstones/absent rows.
func (c *chain) latestCommitted() (types.Row, hlc.Timestamp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := c.head; v != nil; v = v.next.Load() {
		if v.txn.Status() == TxnCommitted {
			return v.row, v.txn.CommitTS(), v.row != nil
		}
	}
	return nil, 0, false
}

// vacuum trims versions strictly older than the newest committed version
// at or below horizon, and drops aborted garbage. Returns versions freed.
func (c *chain) vacuum(horizon hlc.Timestamp) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := 0
	// Drop aborted heads first.
	for c.head != nil && c.head.txn.Status() == TxnAborted {
		c.head = c.head.next.Load()
		freed++
	}
	// Find the newest committed version <= horizon: everything older is
	// invisible to every current and future snapshot.
	for v := c.head; v != nil; v = v.next.Load() {
		if next := v.next.Load(); next != nil && next.txn.Status() == TxnAborted {
			v.next.Store(next.next.Load())
			freed++
			continue
		}
		if v.txn.Status() == TxnCommitted && v.txn.CommitTS() <= horizon {
			for cut := v.next.Load(); cut != nil; cut = cut.next.Load() {
				freed++
			}
			v.next.Store(nil)
			break
		}
	}
	return freed
}
