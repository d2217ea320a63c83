package dn

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/polarfs"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// Errors.
var (
	ErrNotLeader  = errors.New("dn: instance is not the group leader")
	ErrUnknownTxn = errors.New("dn: unknown transaction branch")
	ErrStopped    = errors.New("dn: instance stopped")
	// ErrNoColumnIndex refuses a pushed aggregate on a node that keeps no
	// column index for the table: its rows are not partial states.
	ErrNoColumnIndex = errors.New("dn: no column index to compute a pushed aggregate")
)

// DefaultROLagLimit matches the paper's eviction heuristic ("say the lag
// is larger than one million [bytes of redo]").
const DefaultROLagLimit wal.LSN = 1 << 20

// Config configures a DN instance (one PolarDB instance in one DC).
type Config struct {
	// Name is the instance's simnet endpoint.
	Name string
	DC   simnet.DC
	Net  *simnet.Network

	// Group members (one instance per DC). A single-member group is the
	// single-DC deployment; Propose then commits locally without peers.
	Group   string
	Members []paxos.Member
	// Bootstrap makes this instance the initial leader.
	Bootstrap bool

	// Volume, when non-nil, receives dirty-page writes (PolarFS).
	Volume *polarfs.Volume

	// ROLagLimit overrides the eviction threshold.
	ROLagLimit wal.LSN

	// ServiceRate models the node's compute capacity in rows processed
	// per second per core (0 = unlimited; nodes have 8 simulated cores).
	// Scans cost their examined rows; point operations cost ~1 row;
	// column-index scans cost a quarter (vectorized). RO replicas get
	// their own capacity — which is precisely why adding RO nodes scales
	// read throughput (§II-C, Fig. 9b).
	ServiceRate float64
	// PaxosHeartbeat tunes the replication cadence (default 2ms).
	PaxosHeartbeat time.Duration
	// ElectionTimeout tunes failover detection (default 150ms).
	ElectionTimeout time.Duration

	// GroupCommitWindow tunes the leader's group-commit accumulation
	// window: 0 means the default (DefaultGroupCommitWindow); a negative
	// value disables group commit entirely (the per-MTR flush ablation).
	GroupCommitWindow time.Duration
	// GroupCommitBytes closes an accumulation window early (default 64KB).
	GroupCommitBytes int
	// FlushDelay models the latency of one redo flush to PolarFS
	// (default 0: free, as before this knob existed).
	FlushDelay time.Duration
	// PipelineDepth caps in-flight replication windows per peer
	// (default 8).
	PipelineDepth int

	// InDoubtAfter is how long a branch may sit PREPARED before the
	// instance treats its coordinator as dead and consults the
	// transaction's primary branch for the outcome (default 400ms). Must
	// comfortably exceed normal commit latency, or live transactions get
	// spuriously aborted by presumed-abort resolution.
	InDoubtAfter time.Duration

	// Metrics, when non-nil, receives the instance's instruments (the
	// Paxos quorum-wait histogram, deadline refusals, RO evictions).
	Metrics *obs.Registry
	// TimeSource drives the in-doubt sweep's timers (nil = wall time);
	// chaos tests inject a FakeClock to step through recovery windows.
	TimeSource obs.Clock
}

// DefaultInDoubtAfter is the default in-doubt resolution timeout.
const DefaultInDoubtAfter = 400 * time.Millisecond

// DefaultGroupCommitWindow is the default leader group-commit
// accumulation window: long enough for concurrent committers to share a
// flush, short enough to be invisible next to cross-DC RTTs.
const DefaultGroupCommitWindow = 50 * time.Microsecond

// txnEntry tracks one CN-coordinated transaction branch.
type txnEntry struct {
	// mu serializes lifecycle transitions (prepare/commit/abort/resolve)
	// on this branch: duplicated or retried coordinator RPCs may race the
	// in-doubt sweep, and proposeTail's bookkeeping is not atomic.
	mu  sync.Mutex
	txn *storage.Txn
	// proposed counts redo records already shipped through Paxos, so
	// commit ships only the tail.
	proposed int
	// primary names the transaction's primary branch instance, recorded
	// at prepare time (empty until prepared).
	primary string
	// startedAt/preparedAt drive the in-doubt sweep's timeouts.
	startedAt  time.Time
	preparedAt time.Time
}

// finishedTxn remembers a settled branch outcome so retried commit/abort
// RPCs (duplicates, or retries after a lost reply) answer consistently.
type finishedTxn struct {
	committed bool
	commitTS  hlc.Timestamp
	lsn       wal.LSN
}

// decision is the instance's in-memory commit/abort arbiter for
// transactions whose primary branch lives here. The first writer
// (commit-point request or presumed-abort resolver) wins; durable is set
// once the matching log record is majority-replicated, and only durable
// decisions are revealed to resolvers.
type decision struct {
	commit  bool
	ts      hlc.Timestamp
	durable bool
}

// Instance is one PolarDB instance: RW engine + redo + Paxos membership
// + local RO replicas.
type Instance struct {
	cfg   Config
	clock *hlc.Clock // hybrid logical clock (timestamps, not timers)
	// timeSrc is the injectable wall-time source for branch age and
	// in-doubt sweep timers.
	timeSrc obs.Clock
	eng     *storage.Engine
	node    *paxos.Node

	mu      sync.Mutex
	txns    map[uint64]*txnEntry
	ros     []*RO
	roCur   map[string]wal.LSN // shipping cursor per RO
	roAck   map[string]wal.LSN // applied LSN acked per RO
	evicted map[string]bool
	stopped bool

	// decisions arbitrates commit-point vs. presumed-abort races for
	// transactions whose primary branch is here (guarded by mu, FIFO-capped
	// by decFIFO).
	decisions map[uint64]*decision
	decFIFO   []uint64
	// finished remembers settled branch outcomes for idempotent RPC
	// retries; finFIFO caps it (guarded by mu).
	finished map[uint64]finishedTxn
	finFIFO  []uint64
	// inDoubtSeen records when the sweep first observed an inherited
	// (applier-side) prepared branch, so resolution waits InDoubtAfter
	// from observation, not from an unknowable remote wall-clock.
	inDoubtSeen map[uint64]time.Time

	// recovery counters (observability + test assertions).
	resolvedCommits atomic.Uint64
	resolvedAborts  atomic.Uint64

	applier *storage.Applier
	// svc is the node's service-capacity model (nil = unlimited).
	svc *svcModel
	// stats counts hot-path request types (RPC-budget assertions).
	stats rpcStats
	// mDeadline counts requests refused or unparked because their
	// statement deadline expired (nil-safe).
	mDeadline *obs.Counter
	// mROEvicted counts replicas kicked out of the redo feed (nil-safe).
	mROEvicted *obs.Counter

	done chan struct{}
	wg   sync.WaitGroup
}

// NewInstance creates and starts a DN instance.
func NewInstance(cfg Config) (*Instance, error) {
	if cfg.ROLagLimit == 0 {
		cfg.ROLagLimit = DefaultROLagLimit
	}
	if cfg.PaxosHeartbeat == 0 {
		cfg.PaxosHeartbeat = 2 * time.Millisecond
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.InDoubtAfter == 0 {
		cfg.InDoubtAfter = DefaultInDoubtAfter
	}
	inst := &Instance{
		cfg:         cfg,
		clock:       hlc.NewClock(nil),
		timeSrc:     obs.Or(cfg.TimeSource),
		eng:         storage.NewEngine(),
		txns:        make(map[uint64]*txnEntry),
		roCur:       make(map[string]wal.LSN),
		roAck:       make(map[string]wal.LSN),
		evicted:     make(map[string]bool),
		decisions:   make(map[uint64]*decision),
		finished:    make(map[uint64]finishedTxn),
		inDoubtSeen: make(map[uint64]time.Time),
		mDeadline:   cfg.Metrics.Counter("deadline.exceeded"),
		mROEvicted:  cfg.Metrics.Counter("dn.ro_evicted"),
		done:        make(chan struct{}),
	}
	inst.applier = storage.NewApplier(inst.eng)
	inst.svc = newSvcModel(cfg.ServiceRate, 0)
	gcWindow := cfg.GroupCommitWindow
	if gcWindow == 0 {
		gcWindow = DefaultGroupCommitWindow
	}
	if gcWindow < 0 {
		gcWindow = 0 // ablation: per-MTR flushes
	}
	node, err := paxos.NewNode(paxos.Config{
		Group:             cfg.Group,
		Self:              cfg.Name,
		Members:           cfg.Members,
		Net:               cfg.Net,
		HeartbeatEvery:    cfg.PaxosHeartbeat,
		ElectionTimeout:   cfg.ElectionTimeout,
		Pipelined:         true,
		PipelineDepth:     cfg.PipelineDepth,
		GroupCommitWindow: gcWindow,
		GroupCommitBytes:  cfg.GroupCommitBytes,
		FlushDelay:        cfg.FlushDelay,
		OnApply:           inst.onApply,
		Clock:             cfg.TimeSource,
		Metrics:           cfg.Metrics,
		QuorumWait:        cfg.Metrics.Histogram("paxos.quorum_wait"),
	})
	if err != nil {
		return nil, err
	}
	inst.node = node
	cfg.Net.Register(cfg.Name, cfg.DC, inst.handle)
	if cfg.Bootstrap {
		node.Bootstrap()
	}
	node.Start()
	inst.wg.Add(2)
	go inst.roShipperLoop()
	go inst.flusherLoop()
	return inst, nil
}

// Stop terminates the instance and its RO replicas.
func (i *Instance) Stop() {
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return
	}
	i.stopped = true
	ros := append([]*RO(nil), i.ros...)
	i.mu.Unlock()
	close(i.done)
	i.wg.Wait()
	i.node.Stop()
	for _, ro := range ros {
		ro.stop()
	}
	i.cfg.Net.Unregister(i.cfg.Name)
}

// Name returns the instance endpoint name.
func (i *Instance) Name() string { return i.cfg.Name }

// DC returns the instance's datacenter.
func (i *Instance) DC() simnet.DC { return i.cfg.DC }

// IsLeader reports whether this instance's RW currently serves writes.
func (i *Instance) IsLeader() bool { return i.node.Role() == paxos.RoleLeader }

// Clock exposes the instance's HLC clock (tests and ablations).
func (i *Instance) Clock() *hlc.Clock { return i.clock }

// Engine exposes the local storage engine (used by colindex and tests).
func (i *Instance) Engine() *storage.Engine { return i.eng }

// Paxos exposes the replication node (status surfaces).
func (i *Instance) Paxos() *paxos.Node { return i.node }

// onApply is the follower-side apply path: redo committed by the group
// leader lands here once DLSN covers it.
func (i *Instance) onApply(recs []wal.Record, start, end wal.LSN) {
	i.applyRecords(recs)
}

// applyRecords handles DDL records inline and delegates rows to the
// applier.
func (i *Instance) applyRecords(recs []wal.Record) {
	run := recs[:0:0]
	flush := func() {
		if len(run) > 0 {
			_ = i.applier.Apply(run)
			run = run[:0]
		}
	}
	for _, rec := range recs {
		if rec.Type == wal.RecDDL {
			flush()
			if schema, err := DecodeSchema(rec.Payload); err == nil {
				_, _ = i.eng.CreateTable(rec.TableID, rec.TenantID, schema)
				i.createTableOnROs(rec.TableID, rec.TenantID, rec.Payload)
			}
			continue
		}
		run = append(run, rec)
	}
	flush()
}

// CreateTable provisions a table cluster-wide: locally, on local ROs,
// and (via a RecDDL redo record) on follower instances and their ROs.
func (i *Instance) CreateTable(id, tenant uint32, schema *types.Schema) error {
	if _, err := i.eng.CreateTable(id, tenant, schema); err != nil {
		return err
	}
	payload := EncodeSchema(schema)
	i.createTableOnROs(id, tenant, payload)
	if i.IsLeader() && len(i.cfg.Members) > 1 {
		end, err := i.node.Propose(wal.Record{
			Type: wal.RecDDL, TableID: id, TenantID: tenant, Payload: payload,
		})
		if err != nil {
			return err
		}
		return i.node.AwaitDurable(end)
	}
	if i.IsLeader() {
		// Single-member group: still log the DDL for recovery replay.
		_, err := i.node.Propose(wal.Record{
			Type: wal.RecDDL, TableID: id, TenantID: tenant, Payload: payload,
		})
		return err
	}
	return nil
}

func (i *Instance) createTableOnROs(id, tenant uint32, schemaPayload []byte) {
	schema, err := DecodeSchema(schemaPayload)
	if err != nil {
		return
	}
	i.mu.Lock()
	ros := append([]*RO(nil), i.ros...)
	i.mu.Unlock()
	for _, ro := range ros {
		_, _ = ro.eng.CreateTable(id, tenant, schema)
	}
}

// CreateIndex provisions a local secondary index on this instance and
// its ROs (indexes are node-local acceleration structures).
func (i *Instance) CreateIndex(table uint32, name string, cols []string) error {
	if _, err := i.eng.CreateIndex(table, name, cols); err != nil {
		return err
	}
	i.mu.Lock()
	ros := append([]*RO(nil), i.ros...)
	i.mu.Unlock()
	for _, ro := range ros {
		if _, err := ro.eng.CreateIndex(table, name, cols); err != nil {
			return err
		}
	}
	return nil
}

// flusherLoop periodically flushes dirty pages modified before the DLSN
// to PolarFS (§III: "the leader can safely flush dirty pages modified
// before DLSN"), purges redo that every consumer has moved past
// (§II-C step 8), and vacuums MVCC history no registered snapshot can
// see.
func (i *Instance) flusherLoop() {
	defer i.wg.Done()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	vacuumTick := 0
	for {
		select {
		case <-i.done:
			return
		case <-ticker.C:
		}
		dlsn := i.node.DLSN()
		_, _ = i.eng.Pool().FlushBefore(dlsn, i.writePage)
		i.purgeRedo(dlsn)
		if vacuumTick%8 == 4 {
			// Autonomous in-doubt sweep: resolve against the recorded
			// primary as-is. The cluster-level recovery loop re-runs this
			// with leader-aware routing when the primary's group failed over.
			i.ResolveInDoubt(nil)
		}
		if vacuumTick++; vacuumTick%16 == 0 {
			i.vacuum()
		}
	}
}

// vacuum trims MVCC history as far as the engine's snapshot registry
// allows at the instance's clock. Returns versions freed.
func (i *Instance) vacuum() int { return i.eng.Vacuum(i.clock.Now()) }

// OpenBranches counts the transaction branches open on the instance.
func (i *Instance) OpenBranches() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.txns)
}

// purgeRedo discards redo below the lowest offset any consumer still
// needs: the majority-durable prefix, this node's own apply position
// (a follower's state machine replays [applied, dlsn) asynchronously —
// with group commit DLSN advances in window-sized jumps, so that gap is
// routinely non-empty when the purge tick fires), every RO replica's
// applied position, every Paxos peer's acknowledged position, and the
// oldest unflushed dirty page (recovery replays from there).
func (i *Instance) purgeRedo(dlsn wal.LSN) {
	bound := dlsn
	if m := i.node.ApplyFloor(); m < bound {
		bound = m
	}
	if m := i.node.MinPeerMatch(); m < bound {
		bound = m
	}
	if oldest, dirty := i.eng.Pool().OldestDirtyLSN(); dirty && oldest < bound {
		bound = oldest
	}
	// i.mu is held from the replica floor through the purge: AddRO takes
	// BaseLSN as a new replica's cursor under the same lock, so no purge
	// lands above a cursor it did not see.
	i.mu.Lock()
	defer i.mu.Unlock()
	if m := i.minROAckLocked(dlsn); m < bound {
		bound = m
	}
	log := i.node.Log()
	if bound > log.BaseLSN() && bound <= log.FlushedLSN() {
		log.Purge(bound)
	}
}

// writePage persists one 16KB page image to the instance's volume.
func (i *Instance) writePage(id storage.PageID) error {
	if i.cfg.Volume == nil {
		return nil
	}
	// Pages get stable slots in the volume; content is synthetic (the
	// engine recovers from redo, pages exist to model flush I/O cost).
	slot := (int64(id.TableID)*1031 + int64(id.PageNo)) % 4096
	buf := make([]byte, storage.PageSize)
	return i.cfg.Volume.WriteAt(i.cfg.Name, slot*storage.PageSize, buf)
}
