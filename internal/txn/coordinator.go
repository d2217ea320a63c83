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
		idBase: h.Sum64() << 24,
		clock:  obs.Wall,
	}
}

// Oracle returns the coordinator's timestamp oracle.
func (c *Coordinator) Oracle() Oracle { return c.oracle }

// Tx is one distributed transaction. It reads at its snapshot on any DN
// and holds branches only on the DN leaders it wrote.
type Tx struct {
	ID       uint64
	Snapshot hlc.Timestamp

	coord *Coordinator
	mu    sync.Mutex
	// branches is the branch set: the DNs this transaction sent a write
	// to, in first-write order. Commit and Abort address exactly these;
	// the first is the transaction's primary branch, where the
	// commit-point decision is made durable (§IV).
	branches []branch
	inline   [2]branch // branches' storage for the first two
	done     bool
	// phase waits out a 2PC phase's fan-out (fanOut).
	phase sync.WaitGroup

	// trace, when set, makes every branch RPC and 2PC phase a timed span.
	// Atomic so a statement can attach its trace mid-transaction without
	// racing in-flight RPCs.
	trace atomic.Pointer[traceCtx]

	// deadline is the current statement's deadline as nanoseconds after
	// deadlineEpoch (0 = none). Atomic for the same reason as trace: a
	// statement sets it while earlier branch RPCs may still be settling.
	deadline atomic.Int64
}

// Branch is one written branch of a transaction: the DN it lives on and,
// once committed there, its commit LSN. Session consistency is per DN
// group (LSNs of different groups are not comparable).
type Branch struct {
	DN  string
	LSN wal.LSN
}

// branch is a Branch with its outcome in the current 2PC phase.
type branch struct {
	Branch
	prepareTS hlc.Timestamp
	err       error
}

// SetDeadline installs (or with a zero time clears) the statement
// deadline bounding every subsequent branch RPC and durability wait of
// this transaction. The deadline rides each request to the DN as RPC
// metadata (dn.WithDeadline) and bounds the local retry ladders.
func (t *Tx) SetDeadline(d time.Time) {
	if d.IsZero() {
		t.deadline.Store(0)
		return
	}
	off := int64(d.Sub(deadlineEpoch))
	if off == 0 {
		off = -1 // 0 reads as none; one nanosecond earlier is the same deadline
	}
	t.deadline.Store(off)
}

// Deadline returns the current statement deadline (zero = none).
func (t *Tx) Deadline() time.Time {
	if off := t.deadline.Load(); off != 0 {
		return deadlineEpoch.Add(time.Duration(off))
	}
	return time.Time{}
}

// deadlineEpoch anchors Tx deadlines. A deadline is kept as its offset
// from this instant, so one taken from time.Now keeps its monotonic
// reading and a wall-clock step neither expires nor extends it.
var deadlineEpoch = time.Now()

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

// spanUnder opens a span named name, or "name dn=<dnName>" when dnName
// is set, beneath parent (or the attached default parent when nil).
// Returns nil when no trace is attached, and then builds no name.
func (t *Tx) spanUnder(parent *obs.Span, name, dnName string) *obs.Span {
	tc := t.trace.Load()
	if tc == nil {
		return nil
	}
	if parent == nil {
		parent = tc.parent
	}
	if dnName != "" {
		name += " dn=" + dnName
	}
	return tc.tr.StartSpan(parent, name)
}

// call issues one branch RPC as a timed span, bounded by the statement
// deadline when one is set (expired before sending → immediate refusal;
// the deadline also rides the request as metadata so the DN refuses
// expired work and bounds its durability waits).
func (t *Tx) call(spanName, dnName string, msg any) (any, error) {
	s := t.spanUnder(nil, spanName, dnName)
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
	s := t.spanUnder(parent, spanName, to)
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
	t := &Tx{
		ID:       c.idBase + c.seq.Add(1),
		Snapshot: snap,
		coord:    c,
	}
	t.branches = t.inline[:0]
	return t, nil
}

// branchLocked returns dnName's index in the branch set, or -1. A
// transaction writes a handful of DNs, so a scan beats a map.
func (t *Tx) branchLocked(dnName string) int {
	for i := range t.branches {
		if t.branches[i].DN == dnName {
			return i
		}
	}
	return -1
}

// branchFor returns the TxnID a request to dnName carries: the
// transaction's ID on a DN it has written, so the request goes through
// the branch there and sees the transaction's own writes; elsewhere 0, a
// snapshot read that opens nothing. The DN folds the snapshot into its
// clock either way (§IV steps 2–3).
func (t *Tx) branchFor(dnName string) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return 0, ErrTxDone
	}
	if t.branchLocked(dnName) >= 0 {
		return t.ID, nil
	}
	return 0, nil
}

// markWrote adds dnName to the branch set before a write leaves: a failed
// batch may have partially applied DN-side, so commit must
// prepare-and-fail (or the caller abort) rather than forget the branch,
// and a read racing the first write already goes through the branch
// (the DN opens it for whichever request arrives first).
func (t *Tx) markWrote(dnName string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	if t.branchLocked(dnName) < 0 {
		t.branches = append(t.branches, branch{Branch: Branch{DN: dnName}})
	}
	return nil
}

// MultiGet reads many rows on one DN in a single round trip (the CN fast
// path for multi-point statements): K keys on N DNs cost N RPCs.
func (t *Tx) MultiGet(dnName string, gets []dn.PointGet) ([]dn.ReadResp, error) {
	if len(gets) == 0 {
		return nil, nil
	}
	id, err := t.branchFor(dnName)
	if err != nil {
		return nil, err
	}
	reply, err := t.call("rpc multiget", dnName,
		dn.MultiGetReq{TxnID: id, SnapshotTS: t.Snapshot, Gets: gets})
	if err != nil {
		return nil, err
	}
	return reply.(dn.MultiGetResp).Results, nil
}

// MultiWrite applies many mutations on one DN in a single round trip
// (multi-row INSERT + index maintenance batching); the first write to a
// DN opens the transaction's branch there.
func (t *Tx) MultiWrite(dnName string, writes []dn.WriteItem) error {
	if len(writes) == 0 {
		return nil
	}
	if err := t.markWrote(dnName); err != nil {
		return err
	}
	_, err := t.call("rpc multiwrite", dnName,
		dn.MultiWriteReq{TxnID: t.ID, SnapshotTS: t.Snapshot, Writes: writes})
	return err
}

// Scan runs a pushdown-capable range scan on a DN (filter/projection
// evaluated DN-side, §VI-B), read like MultiGet. TxnID and SnapshotTS are
// filled in from the transaction.
func (t *Tx) Scan(dnName string, req dn.ScanReq) (dn.ScanResp, error) {
	id, err := t.branchFor(dnName)
	if err != nil {
		return dn.ScanResp{}, err
	}
	req.TxnID, req.SnapshotTS = id, t.Snapshot
	reply, err := t.call("rpc scan", dnName, req)
	if err != nil {
		return dn.ScanResp{}, err
	}
	return reply.(dn.ScanResp), nil
}

// EachBranch calls fn for every written branch in first-write order,
// with its commit LSN (0 if it did not commit there): the session
// watermarks for replica reads of those groups afterwards. fn must not
// call back into the transaction.
func (t *Tx) EachBranch(fn func(Branch)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.branches {
		fn(b.Branch)
	}
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
// A DN the transaction only read holds no branch and hears nothing; a
// read-only transaction commits without a message.
func (t *Tx) Commit() (hlc.Timestamp, error) {
	cs := t.spanUnder(nil, "commit", "")
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
	// With done set the branch set cannot grow any more, so the phases
	// below index it without the lock.
	writers := t.branches
	t.mu.Unlock()

	switch len(writers) {
	case 0:
		return t.Snapshot, nil
	case 1:
		commitTS, err := t.coord.oracle.CommitTS(nil)
		if err != nil {
			return 0, err
		}
		reply, err := t.callRetryTraced(cs, "commit-1pc", writers[0].DN,
			dn.CommitReq{TxnID: t.ID, CommitTS: commitTS})
		if err != nil {
			if inDoubt(err) {
				// The lone branch may or may not have committed; its DN
				// settles it (the commit either completed durably or the
				// branch expires to abort).
				return 0, fmt.Errorf("%w: 1PC commit on %s: %v", ErrInDoubt, writers[0].DN, err)
			}
			return 0, err
		}
		resp := reply.(dn.CommitResp)
		t.coord.oracle.Observe(resp.CommitTS)
		t.noteLSN(0, reply)
		return resp.CommitTS, nil
	}

	// Multi-branch: the primary is the first-written branch.
	primary := writers[0].DN

	// Phase one: prepare every written branch in parallel, each carrying
	// the primary's name for crash recovery.
	if err := t.fanOut(cs, "prepare", 0, dn.PrepareReq{TxnID: t.ID, Primary: primary}); err != nil {
		// Safe to abort: no commit point exists yet, so presumed abort
		// holds everywhere (unreachable branches converge via resolver).
		t.abortBranches(writers)
		return 0, fmt.Errorf("%w: prepare failed: %v", ErrAborted, err)
	}
	prepares := make([]hlc.Timestamp, len(writers))
	for i := range writers {
		prepares[i] = writers[i].prepareTS
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
		t.abortBranches(writers[1:])
		return 0, fmt.Errorf("%w: commit point refused: %v", ErrAborted, err)
	}
	t.noteLSN(0, reply)

	// Phase two: broadcast commit_ts to the remaining branches (§IV
	// step 6). Failures here cannot change the outcome — the branch
	// stays PREPARED and recovery commits it from the commit point.
	if err := t.fanOut(cs, "commit", 1, dn.CommitReq{TxnID: t.ID, CommitTS: commitTS}); err != nil {
		// The decision is COMMIT and durable; lagging branches are
		// settled by the resolver. Report the partial failure.
		return commitTS, fmt.Errorf("txn: commit phase partially failed: %w", err)
	}
	return commitTS, nil
}

// fanOut sends one 2PC phase's request to branches [from, len) at once,
// the last on the caller's goroutine, and returns once every reply is in
// with one of the failures, if any. A phase sends every branch the same
// request, so one boxed msg serves them all. Each reply lands in its
// branch: a prepare timestamp, or a commit LSN.
func (t *Tx) fanOut(cs *obs.Span, span string, from int, msg any) error {
	last := len(t.branches) - 1
	t.phase.Add(last - from)
	for i := from; i < last; i++ {
		go func() {
			defer t.phase.Done()
			t.send(cs, span, i, msg)
		}()
	}
	t.send(cs, span, last, msg)
	t.phase.Wait()
	var err error
	for _, b := range t.branches[from:] {
		if b.err != nil {
			err = b.err
		}
	}
	return err
}

// send is one branch's RPC of a 2PC phase (see fanOut).
func (t *Tx) send(cs *obs.Span, span string, i int, msg any) {
	b := &t.branches[i]
	reply, err := t.callRetryTraced(cs, span, b.DN, msg)
	b.err = err
	if err != nil {
		return
	}
	if r, ok := reply.(dn.PrepareResp); ok {
		b.prepareTS = r.PrepareTS
		return
	}
	t.noteLSN(i, reply)
}

// noteLSN records branch i's commit LSN (reply is a dn.CommitResp).
func (t *Tx) noteLSN(i int, reply any) {
	t.mu.Lock()
	t.branches[i].LSN = reply.(dn.CommitResp).LSN
	t.mu.Unlock()
}

// Abort rolls back every branch.
func (t *Tx) Abort() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.done = true
	writers := t.branches
	t.mu.Unlock()
	s := t.spanUnder(nil, "abort", "")
	t.abortBranches(writers)
	s.End()
	t.coord.mAbort.Inc()
	return nil
}

func (t *Tx) abortBranches(branches []branch) {
	var wg sync.WaitGroup
	for _, b := range branches {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			_, _ = t.coord.net.Call(t.coord.self, b, dn.AbortReq{TxnID: t.ID})
		}(b.DN)
	}
	wg.Wait()
}

// MultiGetAt reads a batch of keys at snapshot on any node of a DN group,
// its leader or an RO replica, in one round trip and with no branch. A
// replica first waits until it has applied redo up to minLSN (session
// consistency). The statement deadline (zero = none) bounds the call and
// rides the request, so the replica's wait ends with it.
func (c *Coordinator) MultiGetAt(node string, gets []dn.PointGet,
	snapshot hlc.Timestamp, minLSN wal.LSN, deadline time.Time) ([]dn.ReadResp, error) {
	if len(gets) == 0 {
		return nil, nil
	}
	reply, err := c.callUntil(node, dn.MultiGetReq{
		SnapshotTS: snapshot, MinLSN: minLSN, Gets: gets,
	}, deadline)
	if err != nil {
		return nil, err
	}
	return reply.(dn.MultiGetResp).Results, nil
}

// ScanAt is MultiGetAt's scan: a pushdown-capable scan (including
// column-index and pushed-aggregation requests on replicas) at snapshot.
// It returns the full response: a columnar payload (req.WantBatch)
// reaches the vectorized executor without a pivot through rows.
func (c *Coordinator) ScanAt(node string, req dn.ScanReq,
	snapshot hlc.Timestamp, minLSN wal.LSN, deadline time.Time) (dn.ScanResp, error) {
	req.TxnID, req.SnapshotTS, req.MinLSN = 0, snapshot, minLSN
	reply, err := c.callUntil(node, req, deadline)
	if err != nil {
		return dn.ScanResp{}, err
	}
	return reply.(dn.ScanResp), nil
}
