package txn

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dn"
	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wal"
)

// Errors.
var (
	ErrTxDone  = errors.New("txn: transaction already finished")
	ErrAborted = errors.New("txn: transaction aborted")
	// ErrInDoubt means the commit-point write's outcome is unknown (the
	// primary branch stopped answering mid-decision). The coordinator
	// must NOT abort: participants stay PREPARED and the DN-side recovery
	// protocol resolves them against the primary's durable state.
	ErrInDoubt = errors.New("txn: commit outcome in doubt; recovery will resolve")
)

// Coordinator creates and drives distributed transactions from one CN.
// It is stateless across transactions (CN statelessness is what lets the
// CN tier scale by just adding servers, §II-A).
type Coordinator struct {
	self   string // CN endpoint
	net    *simnet.Network
	oracle Oracle
	seq    atomic.Uint64
	idBase uint64

	// Reader-branch release accounting: releases are asynchronous but
	// bounded by releaseSem; errors and over-cap skips are counted rather
	// than silently dropped (a skipped branch is reclaimed DN-side by the
	// stale-branch sweep).
	releaseSem     chan struct{}
	releaseErrs    atomic.Uint64
	releaseSkipped atomic.Uint64

	// clock drives retry/backoff sleeps; tests inject a FakeClock to make
	// backoff deterministic.
	clock obs.Clock
	// Outcome counters (nil when no registry is installed — nil-safe).
	mCommit  *obs.Counter
	mAbort   *obs.Counter
	mInDoubt *obs.Counter
}

// SetClock replaces the coordinator's backoff clock (tests only).
func (c *Coordinator) SetClock(clk obs.Clock) { c.clock = obs.Or(clk) }

// SetMetrics wires the coordinator's outcome counters into a registry.
func (c *Coordinator) SetMetrics(reg *obs.Registry) {
	c.mCommit = reg.Counter("txn.commit")
	c.mAbort = reg.Counter("txn.abort")
	c.mInDoubt = reg.Counter("txn.in_doubt")
}

// NewCoordinator builds a coordinator for the CN endpoint self.
func NewCoordinator(net *simnet.Network, self string, oracle Oracle) *Coordinator {
	h := fnv.New64a()
	h.Write([]byte(self))
	return &Coordinator{
		self:   self,
		net:    net,
		oracle: oracle,
		// High bits from the CN name keep txn IDs globally unique across
		// coordinators without coordination.
		idBase:     h.Sum64() << 24,
		releaseSem: make(chan struct{}, readerReleaseCap),
		clock:      obs.Wall,
	}
}

// Oracle returns the coordinator's timestamp oracle.
func (c *Coordinator) Oracle() Oracle { return c.oracle }

// Tx is one distributed transaction: a set of branches on DN leaders.
type Tx struct {
	ID       uint64
	Snapshot hlc.Timestamp

	coord *Coordinator
	mu    sync.Mutex
	// branches is the set of DN endpoints this transaction has sent an
	// in-branch request to; Commit and Abort release every member.
	branches map[string]struct{}
	// wrote tracks which branches performed writes (read-only branches
	// skip phase one).
	wrote map[string]bool
	// writeOrder records written branches in first-write order; the first
	// entry is the transaction's primary branch, where the commit-point
	// decision is made durable (§IV).
	writeOrder []string
	done       bool
	// lastLSN is the max commit LSN observed, used for RO session
	// consistency by the caller.
	lastLSN wal.LSN
	// branchLSN records each written DN's commit LSN: session
	// consistency is per DN group (LSNs of different groups are not
	// comparable).
	branchLSN map[string]wal.LSN

	// trace, when set, makes every branch RPC and 2PC phase a timed span.
	// Atomic so a statement can attach its trace mid-transaction without
	// racing in-flight RPCs.
	trace atomic.Pointer[traceCtx]

	// deadline is the current statement's absolute deadline (zero =
	// none). Atomic for the same reason as trace: a statement sets it
	// while earlier branch RPCs may still be settling.
	deadline atomic.Pointer[time.Time]
}

// SetDeadline installs (or with a zero time clears) the statement
// deadline bounding every subsequent branch RPC and durability wait of
// this transaction. The deadline rides each request to the DN as RPC
// metadata (dn.WithDeadline) and bounds the local retry ladders.
func (t *Tx) SetDeadline(d time.Time) {
	if d.IsZero() {
		t.deadline.Store(nil)
		return
	}
	t.deadline.Store(&d)
}

// Deadline returns the current statement deadline (zero = none).
func (t *Tx) Deadline() time.Time {
	if p := t.deadline.Load(); p != nil {
		return *p
	}
	return time.Time{}
}

// traceCtx pairs a trace with the span new Tx spans should nest under.
type traceCtx struct {
	tr     *obs.Trace
	parent *obs.Span
}

// SetTrace attaches (or with a nil trace detaches) tracing to the
// transaction; subsequent RPC spans nest under parent.
func (t *Tx) SetTrace(tr *obs.Trace, parent *obs.Span) {
	if tr == nil {
		t.trace.Store(nil)
		return
	}
	t.trace.Store(&traceCtx{tr: tr, parent: parent})
}

// spanUnder opens a span beneath parent (or the attached default parent
// when nil). Returns nil when no trace is attached.
func (t *Tx) spanUnder(parent *obs.Span, name string) *obs.Span {
	tc := t.trace.Load()
	if tc == nil {
		return nil
	}
	if parent == nil {
		parent = tc.parent
	}
	return tc.tr.StartSpan(parent, name)
}

// call issues one branch RPC as a timed span, bounded by the statement
// deadline when one is set (expired before sending → immediate refusal;
// the deadline also rides the request as metadata so the DN refuses
// expired work and bounds its durability waits).
func (t *Tx) call(spanName, dnName string, msg any) (any, error) {
	s := t.spanUnder(nil, spanName+" dn="+dnName)
	reply, err := t.coord.callUntil(dnName, msg, t.Deadline())
	if err != nil {
		s.Annotate("err=%v", err)
	}
	s.End()
	return reply, err
}

// callUntil issues one RPC bounded by deadline; a zero deadline is the
// legacy unbounded Call, byte for byte.
func (c *Coordinator) callUntil(to string, msg any, deadline time.Time) (any, error) {
	if deadline.IsZero() {
		return c.net.Call(c.self, to, msg)
	}
	left := c.clock.Until(deadline)
	if left <= 0 {
		return nil, fmt.Errorf("txn: call %s: %w", to, obs.ErrDeadlineExceeded)
	}
	res, err := c.net.CallTimeout(c.self, to, dn.WithDeadline(msg, deadline), left)
	return res, c.deadlineVerdict(to, err, deadline)
}

// callRetryTraced is callRetryUntil as a timed span under parent — the
// 2PC phases use it so prepare/commit-point/commit render per DN.
func (t *Tx) callRetryTraced(parent *obs.Span, spanName, to string, msg any) (any, error) {
	s := t.spanUnder(parent, spanName+" dn="+to)
	reply, err := t.coord.callRetryUntil(to, msg, t.Deadline())
	if err != nil {
		s.Annotate("err=%v", err)
	}
	s.End()
	return reply, err
}

// Begin opens a transaction: §IV step 1, mint the snapshot timestamp.
func (c *Coordinator) Begin() (*Tx, error) {
	snap, err := c.oracle.SnapshotTS()
	if err != nil {
		return nil, err
	}
	return &Tx{
		ID:        c.idBase + c.seq.Add(1),
		Snapshot:  snap,
		coord:     c,
		branches:  make(map[string]struct{}),
		wrote:     make(map[string]bool),
		branchLSN: make(map[string]wal.LSN),
	}, nil
}

// registerBranch adds dnName to the branch set before an in-branch
// request leaves. Every such request carries SnapshotTS, and the DN opens
// the branch on first contact, folding the snapshot into its clock first
// (§IV steps 2–3), so concurrent first requests to one DN need no
// ordering and no separate open round trip. Commit/Abort release it.
func (t *Tx) registerBranch(dnName string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	t.branches[dnName] = struct{}{}
	return nil
}

func (t *Tx) markWrote(dnName string) {
	t.mu.Lock()
	if !t.wrote[dnName] {
		t.wrote[dnName] = true
		t.writeOrder = append(t.writeOrder, dnName)
	}
	t.mu.Unlock()
}

// MultiGet reads many rows on one DN in a single round trip (the CN
// fast path for multi-point statements). The request opens the branch on
// first contact, so a fresh transaction touching N DNs pays exactly N
// RPCs for the reads, not 2N.
func (t *Tx) MultiGet(dnName string, gets []dn.PointGet) ([]dn.ReadResp, error) {
	if len(gets) == 0 {
		return nil, nil
	}
	if err := t.registerBranch(dnName); err != nil {
		return nil, err
	}
	reply, err := t.call("rpc multiget", dnName,
		dn.MultiGetReq{TxnID: t.ID, SnapshotTS: t.Snapshot, Gets: gets})
	if err != nil {
		return nil, err
	}
	return reply.(dn.MultiGetResp).Results, nil
}

// MultiWrite applies many mutations on one DN in a single round trip
// (multi-row INSERT + index maintenance batching). The branch is marked
// written before the call: a failed batch may have partially applied
// DN-side, so commit must prepare-and-fail (or the caller abort) rather
// than silently release the branch.
func (t *Tx) MultiWrite(dnName string, writes []dn.WriteItem) error {
	if len(writes) == 0 {
		return nil
	}
	if err := t.registerBranch(dnName); err != nil {
		return err
	}
	t.markWrote(dnName)
	_, err := t.call("rpc multiwrite", dnName,
		dn.MultiWriteReq{TxnID: t.ID, SnapshotTS: t.Snapshot, Writes: writes})
	return err
}

// Scan runs a pushdown-capable range scan in this transaction's branch on
// a DN (filter/projection evaluated DN-side, §VI-B). TxnID and SnapshotTS
// are filled in from the transaction; like MultiGet, the request opens
// the branch on first contact.
func (t *Tx) Scan(dnName string, req dn.ScanReq) ([]types.Row, error) {
	if err := t.registerBranch(dnName); err != nil {
		return nil, err
	}
	req.TxnID, req.SnapshotTS = t.ID, t.Snapshot
	reply, err := t.call("rpc scan", dnName, req)
	if err != nil {
		return nil, err
	}
	return reply.(dn.ScanResp).Rows, nil
}

// LastLSN returns the highest commit LSN this transaction produced, for
// session-consistent RO reads afterwards.
func (t *Tx) LastLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// BranchLSNs returns each written DN's commit LSN (copy).
func (t *Tx) BranchLSNs() map[string]wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]wal.LSN, len(t.branchLSN))
	for k, v := range t.branchLSN {
		out[k] = v
	}
	return out
}

// Commit runs the §IV protocol:
//
//	1PC (one written branch): send CommitReq; the participant picks the
//	commit timestamp locally under HLC-SI (TSO-SI still pays the oracle
//	trip via CommitTS).
//
//	2PC: phase one sends PrepareReq to every written branch in parallel
//	and collects prepare timestamps (each participant ClockAdvances);
//	the commit timestamp is decided by the oracle (max prepare_ts for
//	HLC-SI, a TSO grant for TSO-SI). The decision is then made durable
//	as a commit-point record on the primary branch (the first-written
//	one) before phase two broadcasts commit_ts to the rest — the
//	commit-point write is the transaction's atomic commit instant, and
//	every crash window around it is recoverable (see internal/dn's
//	resolver).
//
// Control RPCs ride bounded retry-with-backoff: transport errors are
// retried, handler verdicts are not. If the commit-point write's fate is
// unknown after retries, Commit returns ErrInDoubt WITHOUT aborting —
// aborting could contradict a commit point that did land; the DN-side
// recovery protocol settles the branches either way.
//
// Read-only branches are released with an abort message (nothing to
// persist), matching the read-only optimization of standard 2PC.
func (t *Tx) Commit() (hlc.Timestamp, error) {
	cs := t.spanUnder(nil, "commit")
	ts, err := t.commit(cs)
	cs.End()
	switch {
	case err == nil || ts != 0:
		// ts != 0 with an error is the partial phase-two failure: the
		// decision is COMMIT and durable.
		t.coord.mCommit.Inc()
	case errors.Is(err, ErrInDoubt):
		t.coord.mInDoubt.Inc()
	case errors.Is(err, ErrTxDone):
		// Double-commit programming error; not a transaction outcome.
	default:
		t.coord.mAbort.Inc()
	}
	return ts, err
}

func (t *Tx) commit(cs *obs.Span) (hlc.Timestamp, error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return 0, ErrTxDone
	}
	t.done = true
	primary := ""
	if len(t.writeOrder) > 0 {
		primary = t.writeOrder[0]
	}
	t.mu.Unlock()
	writers, readers := t.splitBranches()

	// Release read-only branches. This never adds latency to the
	// prepare phase: releaseReaders hands the aborts to bounded
	// asynchronous workers.
	t.releaseReaders(readers)
	switch len(writers) {
	case 0:
		return t.Snapshot, nil
	case 1:
		commitTS, err := t.coord.oracle.CommitTS(nil)
		if err != nil {
			return 0, err
		}
		reply, err := t.callRetryTraced(cs, "commit-1pc", writers[0],
			dn.CommitReq{TxnID: t.ID, CommitTS: commitTS})
		if err != nil {
			if inDoubt(err) {
				// The lone branch may or may not have committed; its DN
				// settles it (the commit either completed durably or the
				// branch expires to abort).
				return 0, fmt.Errorf("%w: 1PC commit on %s: %v", ErrInDoubt, writers[0], err)
			}
			return 0, err
		}
		resp := reply.(dn.CommitResp)
		t.coord.oracle.Observe(resp.CommitTS)
		t.mu.Lock()
		t.lastLSN = resp.LSN
		t.branchLSN[writers[0]] = resp.LSN
		t.mu.Unlock()
		return resp.CommitTS, nil
	}

	// Multi-branch: the primary is the first-written branch. (writeOrder
	// only lists writers, so it is always one of them.)
	if primary == "" {
		primary = writers[0]
	}

	// Phase one: prepare every written branch in parallel, each carrying
	// the primary's name for crash recovery.
	type prepResult struct {
		ts  hlc.Timestamp
		err error
	}
	results := make(chan prepResult, len(writers))
	for _, b := range writers {
		go func(b string) {
			reply, err := t.callRetryTraced(cs, "prepare", b, dn.PrepareReq{TxnID: t.ID, Primary: primary})
			if err != nil {
				results <- prepResult{err: err}
				return
			}
			results <- prepResult{ts: reply.(dn.PrepareResp).PrepareTS}
		}(b)
	}
	prepares := make([]hlc.Timestamp, 0, len(writers))
	var prepErr error
	for range writers {
		r := <-results
		if r.err != nil {
			prepErr = r.err
			continue
		}
		prepares = append(prepares, r.ts)
	}
	if prepErr != nil {
		// Safe to abort: no commit point exists yet, so presumed abort
		// holds everywhere (unreachable branches converge via resolver).
		t.abortBranches(writers)
		return 0, fmt.Errorf("%w: prepare failed: %v", ErrAborted, prepErr)
	}

	// Decide the commit timestamp (§IV step 5) — for HLC-SI this also
	// folds max(prepare_ts) into the CN clock with a single update.
	commitTS, err := t.coord.oracle.CommitTS(prepares)
	if err != nil {
		t.abortBranches(writers)
		return 0, fmt.Errorf("%w: commit timestamp: %v", ErrAborted, err)
	}

	// Commit point: make the decision durable on the primary branch
	// before telling anyone else to commit. Until this RPC succeeds, no
	// participant is allowed to commit; after it succeeds, none may abort.
	reply, err := t.callRetryTraced(cs, "commit-point", primary,
		dn.CommitReq{TxnID: t.ID, CommitTS: commitTS, CommitPoint: true})
	if err != nil {
		if inDoubt(err) {
			// Unknown whether the commit point landed (deadline expiry is
			// the same unknown: the RPC may have been decided DN-side
			// before the statement gave up). Aborting now could contradict
			// a durable COMMIT decision — hands off; branches stay
			// PREPARED and recovery resolves them.
			return 0, fmt.Errorf("%w: commit point on %s: %v", ErrInDoubt, primary, err)
		}
		// Handler verdict (e.g. a resolver's presumed-abort tombstone
		// beat us): the decision is ABORT. Release the other branches.
		rest := make([]string, 0, len(writers)-1)
		for _, b := range writers {
			if b != primary {
				rest = append(rest, b)
			}
		}
		t.abortBranches(rest)
		return 0, fmt.Errorf("%w: commit point refused: %v", ErrAborted, err)
	}
	var maxLSN atomic.Uint64
	if resp := reply.(dn.CommitResp); true {
		t.mu.Lock()
		t.branchLSN[primary] = resp.LSN
		t.mu.Unlock()
		maxLSN.Store(uint64(resp.LSN))
	}

	// Phase two: broadcast commit_ts to the remaining branches (§IV
	// step 6). Failures here cannot change the outcome — the branch
	// stays PREPARED and recovery commits it from the commit point.
	commitResults := make(chan prepResult, len(writers))
	fanout := 0
	for _, b := range writers {
		if b == primary {
			continue
		}
		fanout++
		go func(b string) {
			reply, err := t.callRetryTraced(cs, "commit", b, dn.CommitReq{TxnID: t.ID, CommitTS: commitTS})
			if err == nil {
				resp := reply.(dn.CommitResp)
				t.mu.Lock()
				t.branchLSN[b] = resp.LSN
				t.mu.Unlock()
				for {
					cur := maxLSN.Load()
					if uint64(resp.LSN) <= cur || maxLSN.CompareAndSwap(cur, uint64(resp.LSN)) {
						break
					}
				}
			}
			commitResults <- prepResult{err: err}
		}(b)
	}
	var commitErr error
	for ; fanout > 0; fanout-- {
		if r := <-commitResults; r.err != nil {
			commitErr = r.err
		}
	}
	t.mu.Lock()
	t.lastLSN = wal.LSN(maxLSN.Load())
	t.mu.Unlock()
	if commitErr != nil {
		// The decision is COMMIT and durable; lagging branches are
		// settled by the resolver. Report the partial failure.
		return commitTS, fmt.Errorf("txn: commit phase partially failed: %w", commitErr)
	}
	return commitTS, nil
}

// splitBranches partitions the transaction's branches into writers and
// readers.
func (t *Tx) splitBranches() (writers, readers []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name := range t.branches {
		if t.wrote[name] {
			writers = append(writers, name)
		} else {
			readers = append(readers, name)
		}
	}
	return writers, readers
}

// readerReleaseCap bounds concurrent in-flight reader releases per
// coordinator, and releaseCallTimeout bounds each one: a down DN can
// cost at most cap goroutines for at most the timeout, instead of an
// unbounded pile of leaked fire-and-forget sends.
const (
	readerReleaseCap   = 256
	releaseCallTimeout = 250 * time.Millisecond
)

// releaseReaders releases read-only branches (nothing to persist on a
// read-only branch) without adding latency to the commit critical path:
// each release runs on its own goroutine, gated by a per-coordinator
// semaphore. Failures are counted, and when the semaphore is exhausted
// (a down DN absorbing the cap) further releases are skipped and
// counted — the DN-side stale-branch sweep reclaims those branches.
func (t *Tx) releaseReaders(readers []string) {
	for _, b := range readers {
		select {
		case t.coord.releaseSem <- struct{}{}:
		default:
			t.coord.releaseSkipped.Add(1)
			continue
		}
		go func(b string) {
			defer func() { <-t.coord.releaseSem }()
			if _, err := t.coord.net.CallTimeout(t.coord.self, b,
				dn.AbortReq{TxnID: t.ID}, releaseCallTimeout); err != nil {
				t.coord.releaseErrs.Add(1)
			}
		}(b)
	}
}

// ReleaseStats reports reader-release failures and over-cap skips.
func (c *Coordinator) ReleaseStats() (errs, skipped uint64) {
	return c.releaseErrs.Load(), c.releaseSkipped.Load()
}

// Abort rolls back every branch.
func (t *Tx) Abort() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.done = true
	t.mu.Unlock()
	s := t.spanUnder(nil, "abort")
	writers, readers := t.splitBranches()
	t.abortBranches(append(writers, readers...))
	s.End()
	t.coord.mAbort.Inc()
	return nil
}

func (t *Tx) abortBranches(branches []string) {
	var wg sync.WaitGroup
	for _, b := range branches {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			_, _ = t.coord.net.Call(t.coord.self, b, dn.AbortReq{TxnID: t.ID})
		}(b)
	}
	wg.Wait()
}

// MultiGetRO performs a batch of session-consistent point reads on an
// RO replica in one round trip (the RO waits for MinLSN once, then
// answers every key at the snapshot). Like every RO call it is bounded
// by the statement deadline (zero = none), which also rides the request
// so the replica's wait for minLSN ends with it.
func (c *Coordinator) MultiGetRO(roName string, gets []dn.PointGet,
	snapshot hlc.Timestamp, minLSN wal.LSN, deadline time.Time) ([]dn.ReadResp, error) {
	if len(gets) == 0 {
		return nil, nil
	}
	reply, err := c.callUntil(roName, dn.ROMultiGetReq{
		Gets: gets, SnapshotTS: snapshot, MinLSN: minLSN,
	}, deadline)
	if err != nil {
		return nil, err
	}
	return reply.(dn.MultiGetResp).Results, nil
}

// ScanRO runs a pushdown-capable scan against an RO replica (including
// column-index and pushed-aggregation requests). It returns the full
// response: a columnar payload (req.WantBatch) reaches the vectorized
// executor without a pivot through rows.
func (c *Coordinator) ScanRO(roName string, req dn.ROScanReq, deadline time.Time) (dn.ScanResp, error) {
	reply, err := c.callUntil(roName, req, deadline)
	if err != nil {
		return dn.ScanResp{}, err
	}
	return reply.(dn.ScanResp), nil
}
