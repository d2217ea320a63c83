package storage

import (
	"fmt"
	"time"

	"repro/internal/hlc"
)

// VacuumWindow is the history Vacuum keeps behind "now" whatever the
// registry holds: a snapshot up to this far behind the node's clock finds
// its versions without registering (session-consistent replica reads are
// milliseconds behind in practice, §II-C).
const VacuumWindow = 5 * time.Second

// An engine's snapshot registry is the one place that decides how much
// MVCC history it keeps, on leaders and replicas alike: Engine.txns holds
// every open transaction and every pinned read, and Engine.horizon the
// horizon the last vacuum trimmed to. Registering a snapshot and choosing
// a horizon both happen under Engine.snapMu, so a snapshot is either seen
// by a vacuum or refused by the horizon that vacuum recorded.

// Begin opens a transaction at snapshotTS without checking it against the
// horizon: for callers whose snapshot vacuum cannot have passed (redo
// replay above every snapshot, a node's own clock). A snapshot that
// arrived from elsewhere opens with TryBegin.
func (e *Engine) Begin(snapshotTS hlc.Timestamp) *Txn {
	t := &Txn{SnapshotTS: snapshotTS, done: make(chan struct{})}
	e.register(t, false)
	return t
}

// TryBegin opens a transaction at snapshotTS, or fails with
// ErrSnapshotTooOld when a vacuum already trimmed history it could see.
func (e *Engine) TryBegin(snapshotTS hlc.Timestamp) (*Txn, error) {
	t := &Txn{SnapshotTS: snapshotTS, done: make(chan struct{})}
	if err := e.register(t, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Pin registers a read at snapshotTS and returns a read-only view of the
// engine at it, for Get and ScanRange: until Unpin, no vacuum trims a
// version the snapshot can see. It fails with ErrSnapshotTooOld when a
// vacuum already did.
func (e *Engine) Pin(snapshotTS hlc.Timestamp) (*Txn, error) {
	r := &Txn{SnapshotTS: snapshotTS}
	if err := e.register(r, true); err != nil {
		return nil, err
	}
	return r, nil
}

// Unpin releases a view Pin returned.
func (e *Engine) Unpin(r *Txn) { e.txns.Delete(r.ID) }

func (e *Engine) register(t *Txn, check bool) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if check {
		if err := e.checkSnapshot(t.SnapshotTS); err != nil {
			return err
		}
	}
	t.ID = e.nextID.Add(1)
	e.txns.Store(t.ID, t)
	return nil
}

// checkSnapshot refuses a snapshot below the recorded horizon.
func (e *Engine) checkSnapshot(snapshotTS hlc.Timestamp) error {
	if h := hlc.Timestamp(e.horizon.Load()); snapshotTS < h {
		return fmt.Errorf("%w: %v below horizon %v", ErrSnapshotTooOld, snapshotTS, h)
	}
	return nil
}

// OldestSnapshot returns the oldest registered snapshot, of an open
// (active or prepared) transaction or a pinned read; ok is false when
// none is registered.
func (e *Engine) OldestSnapshot() (oldest hlc.Timestamp, ok bool) {
	e.txns.Range(func(_, v any) bool {
		t := v.(*Txn)
		if st := t.Status(); (st == TxnActive || st == TxnPrepared) && (!ok || t.SnapshotTS < oldest) {
			oldest, ok = t.SnapshotTS, true
		}
		return true
	})
	return oldest, ok
}

// Vacuum trims version chains across all tables, given the node's clock
// reading now: it frees versions invisible to every snapshot at or after
// the horizon, which is the oldest registered snapshot but never past
// now − VacuumWindow. The horizon is recorded before the trim starts, so
// a later TryBegin or Pin below it fails instead of reading trimmed
// history. Returns versions freed.
func (e *Engine) Vacuum(now hlc.Timestamp) int {
	horizon := hlc.New(max(now.Physical()-VacuumWindow.Milliseconds(), 0), 0)
	e.snapMu.Lock()
	if oldest, ok := e.OldestSnapshot(); ok && oldest < horizon {
		horizon = oldest
	}
	horizon = max(horizon, hlc.Timestamp(e.horizon.Load()))
	e.horizon.Store(uint64(horizon))
	e.snapMu.Unlock()
	freed := 0
	for _, t := range e.Tables() {
		t.primary.Ascend(func(_ []byte, v any) bool {
			freed += v.(*chain).vacuum(horizon)
			return true
		})
	}
	return freed
}
