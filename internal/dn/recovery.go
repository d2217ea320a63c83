package dn

// In-doubt transaction resolution (paper §IV).
//
// A coordinator (CN) is stateless and may vanish at any point of the 2PC
// flow. The recovery rule reproduced here is the commit-point protocol:
// the commit decision is durable exactly when a RecCommitPoint record for
// the transaction is majority-replicated on its *primary branch* (the
// first-written branch). A participant stuck in PREPARED consults the
// primary with ResolveTxn:
//
//   - commit point found        -> commit at the recorded timestamp
//   - tombstone found           -> abort
//   - neither (presumed abort)  -> the primary durably logs a
//     RecResolveAbort tombstone, then answers abort; a late commit-point
//     write is refused by the tombstone, so participants can never
//     diverge.
//
// Two sweeps drive resolution: each instance's flusher loop resolves its
// own PREPARED branches past Config.InDoubtAfter, and the cluster-level
// recovery loop (internal/core) re-runs the sweep with leader-aware
// routing after failovers. Branches inherited through Paxos failover
// (present only in the applier's replayed state, with no live engine
// transaction) are resolved by proposing the verdict as a redo record and
// replaying it locally.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hlc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// errResolveInProgress tells a resolver the outcome is being decided
// right now (a commit point mid-durability-wait, or a concurrent
// tombstone write); the caller retries on its next sweep tick.
var errResolveInProgress = errors.New("dn: transaction resolution in progress; retry")

// staleActiveFactor scales InDoubtAfter into the expiry age for ACTIVE
// (never-prepared) branches whose coordinator vanished pre-prepare.
// Generous, because aborting a live interactive transaction is worse
// than briefly leaking a dead one (presumed abort keeps it safe either
// way: nothing ACTIVE can have committed anywhere).
const staleActiveFactor = 25

// resolveCallTimeout bounds each ResolveTxn RPC so a partitioned primary
// stalls a sweep tick, not forever.
const resolveCallTimeout = 150 * time.Millisecond

// finishedCap bounds the settled-outcome and decision maps.
const finishedCap = 1 << 16

// decide claims the commit/abort decision slot for a transaction whose
// primary branch is this instance. The first claimant wins; later calls
// see the existing decision (won=false).
func (i *Instance) decide(globalID uint64, commit bool, ts hlc.Timestamp) (decision, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if d, ok := i.decisions[globalID]; ok {
		return *d, false
	}
	i.decisions[globalID] = &decision{commit: commit, ts: ts}
	i.decFIFO = storage.CapFIFO(i.decFIFO, globalID, i.decisions, finishedCap)
	return decision{commit: commit, ts: ts}, true
}

func (i *Instance) markDecisionDurable(globalID uint64) {
	i.mu.Lock()
	if d, ok := i.decisions[globalID]; ok {
		d.durable = true
	}
	i.mu.Unlock()
}

func (i *Instance) dropDecision(globalID uint64) {
	i.mu.Lock()
	delete(i.decisions, globalID)
	i.mu.Unlock()
}

// finish releases a settled branch and records its outcome for
// idempotent retries.
func (i *Instance) finish(globalID uint64, f finishedTxn) {
	i.mu.Lock()
	delete(i.txns, globalID)
	if _, ok := i.finished[globalID]; !ok {
		i.finished[globalID] = f
		i.finFIFO = storage.CapFIFO(i.finFIFO, globalID, i.finished, finishedCap)
	}
	i.mu.Unlock()
}

func (i *Instance) finishedOutcome(globalID uint64) (finishedTxn, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f, ok := i.finished[globalID]
	return f, ok
}

// commitPointFor reports the durable commit decision for a transaction,
// from this leader's own log writes or from replayed (inherited) state.
func (i *Instance) commitPointFor(globalID uint64) (hlc.Timestamp, bool) {
	i.mu.Lock()
	if d, ok := i.decisions[globalID]; ok && d.commit && d.durable {
		ts := d.ts
		i.mu.Unlock()
		return ts, true
	}
	i.mu.Unlock()
	return i.applier.CommitPoint(globalID)
}

// abortVerdict reports a durable presumed-abort tombstone.
func (i *Instance) abortVerdict(globalID uint64) bool {
	i.mu.Lock()
	if d, ok := i.decisions[globalID]; ok && !d.commit && d.durable {
		i.mu.Unlock()
		return true
	}
	i.mu.Unlock()
	return i.applier.ResolvedAbort(globalID)
}

// handleResolve serves ResolveTxnReq: the primary branch's authoritative
// verdict. Writing the presumed-abort tombstone requires leadership of
// the primary's group; answering from an already-durable verdict does
// not (replicas replay commit points and tombstones too).
func (i *Instance) handleResolve(m ResolveTxnReq) (ResolveTxnResp, error) {
	if ts, ok := i.commitPointFor(m.TxnID); ok {
		return ResolveTxnResp{Committed: true, CommitTS: ts}, nil
	}
	if i.abortVerdict(m.TxnID) {
		return ResolveTxnResp{}, nil
	}
	i.mu.Lock()
	_, inFlight := i.decisions[m.TxnID]
	i.mu.Unlock()
	if inFlight {
		// A commit point (or another resolver's tombstone) is being made
		// durable right now; don't guess.
		return ResolveTxnResp{}, errResolveInProgress
	}
	if !i.IsLeader() {
		return ResolveTxnResp{}, fmt.Errorf("%w: %s cannot write a resolution tombstone", ErrNotLeader, i.cfg.Name)
	}
	if !i.node.LeaderCaughtUp() {
		// Freshly promoted: the commit point may sit in the un-replayed
		// backlog. Answering presumed-abort from incomplete state would
		// break atomicity; make the resolver retry instead.
		return ResolveTxnResp{}, errResolveInProgress
	}
	if _, won := i.decide(m.TxnID, false, 0); !won {
		return ResolveTxnResp{}, errResolveInProgress
	}
	rec := wal.Record{Type: wal.RecResolveAbort, TxnID: m.TxnID}
	end, err := i.node.Propose(rec)
	if err != nil {
		i.dropDecision(m.TxnID)
		return ResolveTxnResp{}, err
	}
	if err := i.node.AwaitDurable(end); err != nil {
		i.dropDecision(m.TxnID)
		return ResolveTxnResp{}, err
	}
	i.markDecisionDurable(m.TxnID)
	// Fold the tombstone into replayed state (a leader applies its own
	// proposals itself) and abort this instance's own branch of the
	// transaction, if any — the primary is usually also a participant.
	// The verdict is durable either way: on an error here a resolver
	// asking again reads it.
	if err := i.applier.Apply([]wal.Record{rec}); err != nil {
		return ResolveTxnResp{}, err
	}
	if err := i.abortLocalBranch(m.TxnID); err != nil {
		return ResolveTxnResp{}, err
	}
	i.resolvedAborts.Add(1)
	return ResolveTxnResp{}, nil
}

// abortLocalBranch aborts this instance's live branch of globalID, if one
// exists and is still undecided locally.
func (i *Instance) abortLocalBranch(globalID uint64) error {
	i.mu.Lock()
	e, ok := i.txns[globalID]
	i.mu.Unlock()
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.txn.Status(); st == storage.TxnCommitted || st == storage.TxnAborted {
		return nil
	}
	return i.abortBranch(globalID, e)
}

// askPrimary fetches the authoritative verdict for globalID from the
// (routed) primary branch instance.
func (i *Instance) askPrimary(globalID uint64, primary string) (ResolveTxnResp, error) {
	if primary == i.cfg.Name {
		return i.handleResolve(ResolveTxnReq{TxnID: globalID})
	}
	reply, err := i.cfg.Net.CallTimeout(i.cfg.Name, primary,
		ResolveTxnReq{TxnID: globalID}, resolveCallTimeout)
	if err != nil {
		return ResolveTxnResp{}, err
	}
	return reply.(ResolveTxnResp), nil
}

// ResolveInDoubt sweeps this instance's in-doubt transaction branches —
// live branches stuck PREPARED past InDoubtAfter, ACTIVE branches whose
// coordinator never came back, and prepared branches inherited through
// Paxos failover — and drives each to commit or abort via its primary
// branch. route maps a recorded primary instance name to that group's
// current leader (nil = ask the recorded name as-is; the cluster layer
// passes real routing after failovers). Returns branches resolved.
func (i *Instance) ResolveInDoubt(route func(string) string) int {
	if route == nil {
		route = func(s string) string { return s }
	}
	now := i.timeSrc.Now()
	resolved := 0

	// Pass 1: branches this instance coordinates live engine state for.
	type cand struct {
		id uint64
		e  *txnEntry
	}
	i.mu.Lock()
	cands := make([]cand, 0, len(i.txns))
	for id, e := range i.txns {
		cands = append(cands, cand{id, e})
	}
	i.mu.Unlock()
	for _, c := range cands {
		c.e.mu.Lock()
		st := c.e.txn.Status()
		primary := c.e.primary
		inDoubt := st == storage.TxnPrepared && !c.e.preparedAt.IsZero() &&
			now.Sub(c.e.preparedAt) > i.cfg.InDoubtAfter
		stale := st == storage.TxnActive && !c.e.startedAt.IsZero() &&
			now.Sub(c.e.startedAt) > staleActiveFactor*i.cfg.InDoubtAfter
		c.e.mu.Unlock()
		switch {
		case inDoubt && primary != "":
			if i.resolveLocalBranch(c.id, c.e, route(primary)) {
				resolved++
			}
		case stale:
			// Never prepared: presumed abort applies unilaterally.
			if i.abortLocalBranch(c.id) == nil {
				i.resolvedAborts.Add(1)
				resolved++
			}
		}
	}

	// Pass 2 (leader only): prepared branches inherited through failover.
	// These live in replayed applier state with no engine transaction;
	// the verdict is applied by proposing it as a redo record. Resolution
	// waits InDoubtAfter from first observation — the origin's wall-clock
	// prepare time is unknowable here.
	if i.IsLeader() {
		live := make(map[uint64]bool)
		for _, b := range i.applier.PreparedBranches() {
			live[b.TxnID] = true
			i.mu.Lock()
			first, seen := i.inDoubtSeen[b.TxnID]
			if !seen {
				i.inDoubtSeen[b.TxnID] = now
			}
			i.mu.Unlock()
			if !seen || now.Sub(first) <= i.cfg.InDoubtAfter {
				continue
			}
			if i.resolveInherited(b, route) {
				resolved++
			}
		}
		i.mu.Lock()
		for id := range i.inDoubtSeen {
			if !live[id] {
				delete(i.inDoubtSeen, id)
			}
		}
		i.mu.Unlock()
	}
	return resolved
}

// resolveLocalBranch drives one live PREPARED branch to its verdict.
func (i *Instance) resolveLocalBranch(globalID uint64, e *txnEntry, primary string) bool {
	resp, err := i.askPrimary(globalID, primary)
	if err != nil {
		return false // unreachable or undecided; retry next sweep
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.txn.Status() != storage.TxnPrepared {
		return false // a late coordinator RPC settled it first
	}
	if resp.Committed {
		if _, err := i.commitBranch(globalID, e, resp.CommitTS, time.Time{}); err != nil {
			return false
		}
		i.resolvedCommits.Add(1)
		return true
	}
	if err := i.abortBranch(globalID, e); err != nil {
		return false
	}
	i.resolvedAborts.Add(1)
	return true
}

// resolveInherited drives one failover-inherited prepared branch to its
// verdict by proposing the outcome as a redo record and replaying it.
func (i *Instance) resolveInherited(b storage.PreparedBranch, route func(string) string) bool {
	if b.GlobalID == 0 || b.Primary == "" {
		return false // pre-recovery prepare format: not resolvable
	}
	resp, err := i.askPrimary(b.GlobalID, route(b.Primary))
	if err != nil {
		return false
	}
	var rec wal.Record
	if resp.Committed {
		i.clock.Update(resp.CommitTS)
		rec = wal.Record{Type: wal.RecCommit, TxnID: b.TxnID,
			Payload: storage.EncodeTS(resp.CommitTS)}
	} else {
		rec = wal.Record{Type: wal.RecAbort, TxnID: b.TxnID}
	}
	end, err := i.node.Propose(rec)
	if err != nil {
		return false
	}
	if err := i.node.AwaitDurable(end); err != nil {
		return false
	}
	// Leaders apply their own proposals (OnApply covers only the
	// follower-era backlog).
	if err := i.applier.Apply([]wal.Record{rec}); err != nil {
		return false
	}
	if resp.Committed {
		i.resolvedCommits.Add(1)
	} else {
		i.resolvedAborts.Add(1)
	}
	return true
}

// InDoubtBranches counts branches with an undecided 2PC outcome on this
// instance: live PREPARED branches plus prepared branches inherited in
// replayed state. Recovery should drive this to zero.
func (i *Instance) InDoubtBranches() int {
	i.mu.Lock()
	n := 0
	for _, e := range i.txns {
		if e.txn.Status() == storage.TxnPrepared {
			n++
		}
	}
	i.mu.Unlock()
	return n + len(i.applier.PreparedBranches())
}

// ResolutionStats reports how many branches recovery committed/aborted.
func (i *Instance) ResolutionStats() (commits, aborts uint64) {
	return i.resolvedCommits.Load(), i.resolvedAborts.Load()
}
