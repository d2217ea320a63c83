// Package paxos implements the DN-layer cross-datacenter replication
// protocol of PolarDB-X (paper §III): Paxos with a leader lease carrying
// the InnoDB redo stream between datacenters.
//
// Unlike Aurora, replication happens at the DN layer, not the storage
// layer: the leader PolarDB instance ships redo log bytes — chopped into
// MLOG_PAXOS frames (wal.PaxosFrame) — to follower instances in other
// datacenters. The protocol includes every optimization the paper calls
// out:
//
//   - Pipelining: the leader keeps up to PipelineDepth frame windows in
//     flight per peer; out-of-order acks retire whichever windows they
//     cover and narrow the next/match cursors.
//   - Batching: many small MTRs share one MLOG_PAXOS header (≤16 KB),
//     and with group commit enabled many concurrent proposals share one
//     redo flush and one shipped frame window per accumulation window.
//   - Asynchronous commit: Propose returns immediately after local append;
//     a dedicated async_log_committer goroutine watches the DLSN and
//     releases transactions whose last MTR became durable, so foreground
//     threads never block on cross-DC round trips.
//   - DLSN (Durable LSN): advanced once a majority has persisted a prefix;
//     followers apply only up to DLSN because entries beyond it may be
//     truncated after a leader change.
//   - Lease reads: a leader inside a valid lease answers read-only
//     snapshot reads locally without a quorum round (LeaseRead), falling
//     back to one confirmation round when the lease lapsed.
//
// Roles: Leader (serves writes), Follower (replicates and can be elected),
// Logger (persists log only, votes, but can never lead — the paper's
// cheap third replica).
package paxos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// Role is a node's current protocol role.
type Role int32

// Roles.
const (
	RoleFollower Role = iota
	RoleLeader
	RoleLogger
	RoleCandidate
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleLeader:
		return "leader"
	case RoleLogger:
		return "logger"
	case RoleCandidate:
		return "candidate"
	default:
		return fmt.Sprintf("Role(%d)", int32(r))
	}
}

// Errors.
var (
	ErrNotLeader    = errors.New("paxos: not the leader")
	ErrStaleEpoch   = errors.New("paxos: stale epoch")
	ErrStopped      = errors.New("paxos: node stopped")
	ErrCommitAbort  = errors.New("paxos: commit abandoned after leadership loss")
	ErrLeaseExpired = errors.New("paxos: leader lease expired")
)

// Member describes one group member.
type Member struct {
	Name   string
	DC     simnet.DC
	Logger bool // Logger members persist the log but can never lead.
}

// Config configures a replication group node.
type Config struct {
	Group   string
	Self    string
	Members []Member
	Net     *simnet.Network

	// HeartbeatEvery is the leader's heartbeat/commit-broadcast period.
	HeartbeatEvery time.Duration
	// ElectionTimeout is the base follower election timeout; each node
	// randomizes in [ElectionTimeout, 2*ElectionTimeout).
	ElectionTimeout time.Duration
	// LeaseDuration is the leader lease extended by each successful
	// majority heartbeat round (§III "Paxos protocol with leader lease").
	LeaseDuration time.Duration
	// BatchBytes caps MLOG_PAXOS frame payloads (default 16 KB).
	BatchBytes int
	// Pipelined enables streaming frames without per-frame acks. Turning
	// it off (ablation bench) makes the shipper wait for each window.
	Pipelined bool
	// PipelineDepth caps frame windows in flight per peer (default 8).
	// Forced to 1 when Pipelined is false.
	PipelineDepth int
	// WindowBytes caps the redo bytes per shipped window — one appendMsg,
	// split into BatchBytes frames (default 64 KB).
	WindowBytes int
	// GroupCommitWindow enables leader group commit: concurrent proposals
	// accumulate for up to this long (closed early at GroupCommitBytes)
	// and share ONE redo flush. 0 disables it — the seed behavior where
	// every Propose flushes its own MTR, byte-identical log content.
	GroupCommitWindow time.Duration
	// GroupCommitBytes closes an accumulation window early once this many
	// bytes are pending (default 64 KB).
	GroupCommitBytes int
	// FlushDelay models the latency of one redo flush to PolarFS
	// (default 0: flushes are free, as in the seed). Flushes serialize on
	// one device, which is exactly the cost group commit amortizes. The
	// wait is injected time, served by simnet.Delay.
	FlushDelay time.Duration

	// OnApply, when set, is invoked in LSN order with each durable record
	// range as DLSN advances. Followers use it to replay redo into their
	// buffer pools; the leader's state machine already applied the
	// changes at append time, so leaders do not invoke it.
	OnApply func(recs []wal.Record, start, end wal.LSN)

	// Seed randomizes election timeouts deterministically in tests.
	Seed int64

	// Clock drives lease validity, election timers and ack freshness.
	// Nil defaults to the wall clock; tests inject an obs.FakeClock to
	// step lease logic deterministically. Pacing loops (heartbeat
	// tickers, the group-commit window) and FlushDelay intentionally stay
	// on real time, like the simulated network latency.
	Clock obs.Clock

	// Metrics, when non-nil, receives the commit-pipeline instruments:
	// paxos.flushes, paxos.group_size (MTRs through those flushes, so
	// mean group size = group_size/flushes), paxos.lease_reads,
	// paxos.quorum_reads, and paxos.quorum_wait if QuorumWait is unset.
	Metrics *obs.Registry

	// QuorumWait, when non-nil, observes how long AwaitDurable callers
	// block for majority replication — the paper's Paxos quorum-wait
	// component of commit latency. Nil-safe.
	QuorumWait *obs.Histogram
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatEvery <= 0 {
		out.HeartbeatEvery = 10 * time.Millisecond
	}
	if out.ElectionTimeout <= 0 {
		out.ElectionTimeout = 150 * time.Millisecond
	}
	if out.LeaseDuration <= 0 {
		out.LeaseDuration = 4 * out.HeartbeatEvery
	}
	if out.BatchBytes <= 0 {
		out.BatchBytes = wal.MaxFramePayload
	}
	if out.PipelineDepth <= 0 {
		out.PipelineDepth = 8
	}
	if out.WindowBytes <= 0 {
		out.WindowBytes = 64 * 1024
	}
	if out.GroupCommitBytes <= 0 {
		out.GroupCommitBytes = 64 * 1024
	}
	if out.QuorumWait == nil {
		out.QuorumWait = out.Metrics.Histogram("paxos.quorum_wait")
	}
	return out
}

// Message types exchanged over simnet.

type appendMsg struct {
	Group  string
	Epoch  uint64
	Leader string
	Frames []wal.PaxosFrame
	DLSN   wal.LSN // leader's current durable LSN, piggybacked
}

type appendAck struct {
	Group string
	Epoch uint64
	From  string
	// AckLSN is the follower's persisted tail; Rejected indicates a gap
	// (the follower needs frames from AckLSN).
	AckLSN   wal.LSN
	Rejected bool
}

type voteReq struct {
	Group     string
	Epoch     uint64
	Candidate string
	LastLSN   wal.LSN
}

type voteResp struct {
	Group   string
	Epoch   uint64
	Granted bool
	// VoterDLSN and VoterTail let a refused candidate discover that it is
	// missing durable log and catch up (fetchReq) before retrying.
	VoterDLSN wal.LSN
	VoterTail wal.LSN
}

// fetchReq asks a peer for raw log bytes from From to its flushed tail.
// Candidates refused for short logs use it to catch up; the paper's
// Logger role exists precisely to serve this ("it only documents redo
// log records" yet participates in recovery).
type fetchReq struct {
	Group string
	From  wal.LSN
}

type fetchResp struct {
	Start wal.LSN
	Bytes []byte
	DLSN  wal.LSN
}

type heartbeatMsg struct {
	Group  string
	Epoch  uint64
	Leader string
	DLSN   wal.LSN
}

// commitWaiter is one transaction parked in the async-commit map.
type commitWaiter struct {
	lsn wal.LSN
	ch  chan error
}

// Node is one member of a replication group.
type Node struct {
	cfg   Config
	log   *wal.Log
	rng   *rand.Rand
	self  Member
	clock obs.Clock

	// flushMu serializes redo flushes: the group models one redo device
	// per node, so concurrent flushes queue behind each other.
	flushMu sync.Mutex

	mu      sync.Mutex
	role    Role
	epoch   uint64
	votedIn uint64 // highest epoch this node voted in
	leader  string // current known leader
	dlsn    wal.LSN
	// dlsnRose, when non-nil, is closed the next time DLSN rises; RO
	// replicas tailing the log park on it (WatchDLSN).
	dlsnRose chan struct{}
	applied  wal.LSN // prefix already handed to OnApply
	// promotedTail is the log tail at the moment of promotion: the
	// upper bound of follower-era entries the committer must still hand
	// to OnApply (leader-era proposals are applied by the proposer).
	promotedTail wal.LSN
	peers        map[string]*peerShip // leader: per-peer shipping state
	tracker      dlsnTracker          // leader: incremental majority LSN
	leaseEnd     time.Time            // leader: lease expiry
	ackAt        map[string]time.Time // leader: last current-epoch ack per peer
	lastBeat     time.Time            // follower: last heartbeat seen
	stopped      bool

	// Group-commit accumulator (leader, guarded by mu): MTRs appended by
	// Propose but not yet scheduled into a flush.
	gcPending wal.LSN // end LSN of the newest pending MTR
	gcStart   wal.LSN // end LSN of the last scheduled flush (window base)
	gcMTRs    int     // pending MTR count
	gcEpoch   uint64  // epoch the pending window belongs to

	// waiters is the async-commit map: transaction contexts parked until
	// DLSN covers their last MTR (§III "stores the transaction's context
	// in a map data structure"), ordered by LSN.
	waiters waiterHeap

	// kickShip/kickCommit/kickFlush wake the shipper, committer and
	// group-commit flusher loops; gcFull closes an accumulation window
	// early when GroupCommitBytes is reached.
	kickShip   chan struct{}
	kickCommit chan struct{}
	kickFlush  chan struct{}
	gcFull     chan struct{}
	done       chan struct{}
	wg         sync.WaitGroup

	// metrics
	framesSent  int64
	framesAcked int64
	elections   int64
	bytesRaw    int64 // redo bytes handed to the frame batcher
	bytesWire   int64 // frame payload bytes actually shipped
	mFlushes    *obs.Counter
	mGroupSize  *obs.Counter
	mLeaseReads *obs.Counter
	mQuorumRds  *obs.Counter
	mCompIn     *obs.Counter
	mCompOut    *obs.Counter
}

// NewNode creates (but does not start) a group member. Every node starts
// as a follower (or logger); call Start to run timers, or Bootstrap on
// exactly one member to seed epoch 1 leadership for tests and fresh
// clusters.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	var self Member
	found := false
	for _, m := range cfg.Members {
		if m.Name == cfg.Self {
			self, found = m, true
		}
	}
	if !found {
		return nil, fmt.Errorf("paxos: self %q not in member list", cfg.Self)
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Self))
	n := &Node{
		cfg:         cfg,
		log:         wal.NewLog(),
		rng:         rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64()))),
		self:        self,
		clock:       obs.Or(cfg.Clock),
		role:        RoleFollower,
		kickShip:    make(chan struct{}, 1),
		kickCommit:  make(chan struct{}, 1),
		kickFlush:   make(chan struct{}, 1),
		gcFull:      make(chan struct{}, 1),
		done:        make(chan struct{}),
		mFlushes:    cfg.Metrics.Counter("paxos.flushes"),
		mGroupSize:  cfg.Metrics.Counter("paxos.group_size"),
		mLeaseReads: cfg.Metrics.Counter("paxos.lease_reads"),
		mQuorumRds:  cfg.Metrics.Counter("paxos.quorum_reads"),
		mCompIn:     cfg.Metrics.Counter("compress.bytes_in"),
		mCompOut:    cfg.Metrics.Counter("compress.bytes_out"),
	}
	if self.Logger {
		n.role = RoleLogger
	}
	cfg.Net.Register(n.endpoint(), self.DC, n.handle)
	return n, nil
}

// endpoint is the simnet address: group/name, so many groups can share
// one fabric.
func (n *Node) endpoint() string { return n.cfg.Group + "/" + n.cfg.Self }

// Endpoint returns the node's network address, so fault injectors can
// crash the replication plane together with the serving plane.
func (n *Node) Endpoint() string { return n.endpoint() }

func endpointOf(group, name string) string { return group + "/" + name }

// Log exposes the node's redo log (the DN layers on top of it).
func (n *Node) Log() *wal.Log { return n.log }

// Name returns the member name.
func (n *Node) Name() string { return n.cfg.Self }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// LeaderCaughtUp reports whether the node leads AND has applied every
// entry it accepted before promotion — the gate a router must wait on
// before sending reads to a freshly elected leader.
func (n *Node) LeaderCaughtUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader && n.applied >= n.promotedTail
}

// Applied returns the prefix already handed to OnApply (follower-era
// entries; leader-era proposals are applied by the proposer).
func (n *Node) Applied() wal.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// ApplyFloor returns the lowest log offset the OnApply pipeline still
// needs. Purging at or above this offset would silently drop records
// from the state machine: the committer advances its cursor before
// reading, so bytes purged inside [applied, dlsn) are never replayed.
// Leaders stop consuming OnApply past their promotion tail (the
// proposer applies its own entries), so once the backlog is drained the
// floor tracks DLSN and purge is not pinned.
func (n *Node) ApplyFloor() wal.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.OnApply == nil {
		return n.dlsn
	}
	if n.role == RoleLeader && n.applied >= n.promotedTail {
		return n.dlsn
	}
	return n.applied
}

// DLSN returns the durable LSN.
func (n *Node) DLSN() wal.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dlsn
}

// WatchDLSN returns the durable LSN and a channel closed when it next
// rises. Unlike AwaitDurable it neither parks in the async-commit map nor
// feeds the QuorumWait histogram: readers that tail the log (RO
// replicas) wait on it.
func (n *Node) WatchDLSN() (wal.LSN, <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dlsnRose == nil {
		n.dlsnRose = make(chan struct{})
	}
	return n.dlsn, n.dlsnRose
}

// LeaderName returns the last known leader.
func (n *Node) LeaderName() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// Start launches background loops: shipping (leader), commit
// application, group-commit flushing, and the election timer. It is
// idempotent per node lifetime.
func (n *Node) Start() {
	n.wg.Add(4)
	go n.shipperLoop()
	go n.committerLoop()
	go n.flusherLoop()
	go n.electionLoop()
}

// Stop terminates all loops and fails parked commits.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.failWaitersLocked(ErrStopped)
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	n.cfg.Net.Unregister(n.endpoint())
}

// Bootstrap makes this node leader of epoch 1 immediately. Use on exactly
// one member of a freshly created group.
func (n *Node) Bootstrap() {
	n.mu.Lock()
	n.becomeLeaderLocked(1)
	n.mu.Unlock()
	n.kickLoops()
}

func (n *Node) kickLoops() {
	select {
	case n.kickShip <- struct{}{}:
	default:
	}
	select {
	case n.kickCommit <- struct{}{}:
	default:
	}
}

// becomeLeaderLocked transitions to leadership in the given epoch.
// Entries accepted as a follower but not yet applied form a backlog the
// committer drains (bounded by promotedTail) before this node's state
// machine is current — new leaders must not serve until then.
func (n *Node) becomeLeaderLocked(epoch uint64) {
	n.role = RoleLeader
	n.promotedTail = n.log.TailLSN()
	n.epoch = epoch
	n.leader = n.cfg.Self
	now := n.clock.Now()
	n.leaseEnd = now.Add(n.cfg.LeaseDuration)
	n.ackAt = make(map[string]time.Time)
	n.tracker.reset(n.cfg.Members, n.majority())
	n.tracker.update(n.cfg.Self, n.log.FlushedLSN())
	n.gcPending, n.gcMTRs = 0, 0
	n.gcStart = n.log.FlushedLSN()
	tail := n.log.TailLSN()
	n.peers = make(map[string]*peerShip, len(n.cfg.Members))
	for _, m := range n.cfg.Members {
		if m.Name != n.cfg.Self {
			n.peers[m.Name] = &peerShip{next: tail, lastMove: now}
		}
	}
}

// Propose appends one MTR to the leader's log, makes it locally durable
// (immediately, or via the shared group-commit flush), and starts
// replication. It returns the MTR's end LSN without waiting for the
// majority: pair it with AwaitDurable (async commit) or call
// ProposeAndWait.
func (n *Node) Propose(recs ...wal.Record) (wal.LSN, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, ErrStopped
	}
	if n.role != RoleLeader {
		role := n.role
		n.mu.Unlock()
		return 0, fmt.Errorf("%w: %s is %s", ErrNotLeader, n.cfg.Self, role)
	}
	// The role check and the append form one critical section:
	// deposition (adoptLeaderLocked) also runs under mu, so a deposed
	// leader can never slip an MTR into a log its successor epoch has
	// already truncated.
	epoch := n.epoch
	_, end := n.log.AppendMTR(recs...)
	grouped := n.cfg.GroupCommitWindow > 0
	var full bool
	if grouped {
		n.gcPending = end
		n.gcMTRs++
		n.gcEpoch = epoch
		full = int(end-n.gcStart) >= n.cfg.GroupCommitBytes
	}
	n.mu.Unlock()

	if grouped {
		// Group commit: hand the MTR to the flusher. One redo flush (and
		// one shipped frame window) covers every MTR that joins the
		// accumulation window.
		select {
		case n.kickFlush <- struct{}{}:
		default:
		}
		if full {
			select {
			case n.gcFull <- struct{}{}:
			default:
			}
		}
		return end, nil
	}
	// Ablation / seed path: redo is flushed to PolarFS before it is
	// shipped (§III), one serialized flush per MTR.
	n.flushAs(end, 1, epoch)
	return end, nil
}

// AwaitDurable blocks until DLSN >= lsn (the transaction's last MTR is
// durable on a majority) or the node loses leadership/stops. Both the
// parked wait and the already-durable fast path (~0) are observed into
// the QuorumWait histogram, so it reflects the full commit-wait
// distribution.
func (n *Node) AwaitDurable(lsn wal.LSN) error {
	n.mu.Lock()
	if n.dlsn >= lsn {
		n.mu.Unlock()
		n.cfg.QuorumWait.Observe(0)
		return nil
	}
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	ch := waitChans.Get().(chan error)
	n.waiters.push(commitWaiter{lsn: lsn, ch: ch})
	n.mu.Unlock()
	h := n.cfg.QuorumWait
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	err := <-ch
	waitChans.Put(ch)
	if h != nil {
		h.Observe(time.Since(start))
	}
	return err
}

// waitChans recycles waiter channels. A parked waiter's channel receives
// exactly one verdict, which the waiter consumes, or none once the waiter
// has removed itself (AwaitDurableUntil's expiry); either way it is empty
// when the waiter puts it back.
var waitChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// AwaitDurableUntil is AwaitDurable bounded by an absolute deadline: a
// caller whose statement deadline expires is unparked, its waiter is
// removed from the async-commit map (no leaked heap entries, no stray
// sends), and obs.ErrDeadlineExceeded is returned. The proposal itself
// stays in the log — durability is not cancelled, only the wait — so
// the caller must treat the outcome as in-doubt, exactly as it would a
// timed-out commit-point RPC. A zero deadline is plain AwaitDurable.
func (n *Node) AwaitDurableUntil(lsn wal.LSN, deadline time.Time) error {
	if deadline.IsZero() {
		return n.AwaitDurable(lsn)
	}
	n.mu.Lock()
	if n.dlsn >= lsn {
		n.mu.Unlock()
		n.cfg.QuorumWait.Observe(0)
		return nil
	}
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	left := n.clock.Until(deadline)
	if left <= 0 {
		n.mu.Unlock()
		return fmt.Errorf("paxos %s: await lsn %d: %w", n.endpoint(), lsn, obs.ErrDeadlineExceeded)
	}
	ch := waitChans.Get().(chan error)
	n.waiters.push(commitWaiter{lsn: lsn, ch: ch})
	n.mu.Unlock()

	timeout, cancel := obs.After(n.clock, left)
	defer cancel()
	start := time.Now()
	select {
	case err := <-ch:
		waitChans.Put(ch)
		n.cfg.QuorumWait.Observe(time.Since(start))
		return err
	case <-timeout:
	}
	n.mu.Lock()
	removed := n.removeWaiterLocked(ch)
	n.mu.Unlock()
	if !removed {
		// The verdict raced in before we could remove the waiter; the
		// channel is buffered, so it is already there. Honor it.
		err := <-ch
		waitChans.Put(ch)
		n.cfg.QuorumWait.Observe(time.Since(start))
		return err
	}
	waitChans.Put(ch)
	return fmt.Errorf("paxos %s: await lsn %d after %v: %w", n.endpoint(), lsn, time.Since(start), obs.ErrDeadlineExceeded)
}

// removeWaiterLocked drops the waiter identified by its channel from
// the async-commit map. Caller holds n.mu.
func (n *Node) removeWaiterLocked(ch chan error) bool {
	for i := range n.waiters {
		if n.waiters[i].ch == ch {
			n.waiters.removeAt(i)
			return true
		}
	}
	return false
}

// PendingWaiters reports commit waiters currently parked in the
// async-commit map (tests and snapshots).
func (n *Node) PendingWaiters() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.waiters)
}

// ProposeAndWait is Propose followed by AwaitDurable — the synchronous
// commit path used where async commit is disabled (ablation).
func (n *Node) ProposeAndWait(recs ...wal.Record) (wal.LSN, error) {
	end, err := n.Propose(recs...)
	if err != nil {
		return 0, err
	}
	return end, n.AwaitDurable(end)
}

// renewLeaseLocked extends the leader lease to the (majority-1)-th
// freshest peer acknowledgement plus LeaseDuration: the lease is valid
// exactly as long as a quorum (self included) has confirmed this
// leader's epoch recently, whether or not any new log was committed —
// an idle leader keeps its lease on heartbeat acks alone.
func (n *Node) renewLeaseLocked() {
	need := len(n.cfg.Members)/2 + 1 - 1 // peers needed beyond self
	if need <= 0 {
		n.leaseEnd = n.clock.Now().Add(n.cfg.LeaseDuration)
		return
	}
	times := make([]time.Time, 0, len(n.ackAt))
	for _, t := range n.ackAt {
		times = append(times, t)
	}
	if len(times) < need {
		return
	}
	sort.Slice(times, func(i, j int) bool { return times[i].After(times[j]) })
	if end := times[need-1].Add(n.cfg.LeaseDuration); end.After(n.leaseEnd) {
		n.leaseEnd = end
	}
}

// advanceDLSNLocked raises DLSN to the largest LSN persisted by a
// majority, read off the incremental tracker. Caller holds n.mu.
func (n *Node) advanceDLSNLocked() {
	if n.role != RoleLeader {
		return
	}
	n.raiseDLSNLocked(n.tracker.quorumLSN())
}

// raiseDLSNLocked is the one place DLSN moves: it raises DLSN to d (never
// lowers it) and wakes WatchDLSN's parked readers. Caller holds n.mu.
func (n *Node) raiseDLSNLocked(d wal.LSN) {
	if d <= n.dlsn {
		return
	}
	n.dlsn = d
	if n.dlsnRose != nil {
		close(n.dlsnRose)
		n.dlsnRose = nil
	}
}

// MinPeerMatch returns the lowest acknowledged log offset across peers
// (leader only; the log must not be purged above it or lagging peers
// could no longer catch up from this leader). Followers return DLSN.
func (n *Node) MinPeerMatch() wal.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleLeader {
		return n.dlsn
	}
	min := n.log.FlushedLSN()
	for _, p := range n.peers {
		if p.match < min {
			min = p.match
		}
	}
	return min
}
