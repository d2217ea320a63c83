// Package core assembles the full PolarDB-X system (paper §II): the
// CN-DN-SN three-layer architecture wired over the simulated multi-DC
// fabric. It provides the Cluster (GMS + load balancer + CN fleet + DN
// groups + PolarFS) and the CN's complete query path: SQL → HTAP
// optimizer → routing → distributed transactions (HLC-SI or TSO-SI) →
// execution (TP on RW leaders, AP on RO replicas with resource
// isolation, MPP fragments and column indexes).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/autopilot"
	"repro/internal/dn"
	"repro/internal/executor"
	"repro/internal/gms"
	"repro/internal/hlc"
	"repro/internal/htap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/paxos"
	"repro/internal/polarfs"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/vector"
)

// OracleKind selects the timestamp scheme.
type OracleKind string

// Timestamp schemes.
const (
	OracleHLC OracleKind = "hlc-si"
	OracleTSO OracleKind = "tso-si"
)

// Config sizes a cluster.
type Config struct {
	// DCs is the number of datacenters (default 1; the paper's cross-DC
	// evaluation uses 3).
	DCs int
	// CNsPerDC computation nodes per datacenter (default 2).
	CNsPerDC int
	// DNGroups shard groups; each holds 1/DNGroups of every table's
	// shards (default 2).
	DNGroups int
	// MultiDC replicates each DN group across all DCs via Paxos; the
	// group leaders are spread round-robin across DCs.
	MultiDC bool
	// ROsPerDN read-only replicas attached to each DN group leader.
	ROsPerDN int
	// Oracle selects HLC-SI (default) or TSO-SI. The TSO server lives in
	// DC1, so CNs in other DCs pay cross-DC trips for timestamps.
	Oracle OracleKind
	// Topology is the network latency model (default ZeroTopology for
	// tests; benches use DefaultTopology).
	Topology *simnet.Topology
	// SchedulerCfg tunes each CN's local scheduler.
	SchedulerCfg htap.Config
	// TPCostThreshold overrides the optimizer's TP/AP boundary.
	TPCostThreshold float64
	// IsolationOff disables the CN resource isolation (Fig. 9 config 1):
	// AP queries run in the TP pool, contending freely.
	IsolationOff bool
	// MPPOff disables multi-CN fragment execution (Fig. 10 baseline).
	MPPOff bool
	// DNServiceRate models each DN node's compute capacity in work
	// tokens per second (0 = unlimited). Every RW and RO node gets its
	// own bucket, so read capacity scales with replica count (Fig. 9b).
	DNServiceRate float64
	// WithPolarFS provisions chunk servers and volumes (page-flush I/O).
	WithPolarFS bool
	// FaultPlan scripts network chaos (per-link drops, duplication,
	// jitter, call deadlines) onto the cluster fabric from the moment it
	// is built. Tests and examples use it with a fixed Seed for
	// reproducible fault schedules; nil runs a clean network.
	FaultPlan *simnet.FaultPlan
	// InDoubtTimeout is how long a DN branch may sit PREPARED before
	// in-doubt resolution consults its primary branch (plumbed into
	// dn.Config.InDoubtAfter). The default is generous (2s, like the
	// election timeout) because benchmark clusters run heavy goroutine
	// load on one host; chaos tests pass something much smaller.
	InDoubtTimeout time.Duration
	// RecoveryInterval paces the cluster's background recovery loop,
	// which heals DN leader routing and sweeps in-doubt transaction
	// branches (default 500ms).
	RecoveryInterval time.Duration
	// Tracing enables per-statement span traces: every Session.Execute
	// builds a span tree (plan, per-DN RPCs, 2PC phases) retrievable via
	// Result.Trace / Session.LastTrace. Off by default — the benchmark
	// paths must not pay for span bookkeeping.
	Tracing bool
	// Metrics enables the cluster metrics registry: RPC latency by link
	// class, plan-cache hit/miss, txn outcomes, Paxos quorum waits. Off by
	// default for the same reason as Tracing.
	Metrics bool
	// SlowQueryThreshold, when > 0, logs statements whose wall time meets
	// it to the cluster slow-query log.
	SlowQueryThreshold time.Duration
	// Autopilot, when non-nil, starts the closed-loop elastic controller:
	// it watches shard-load windows, migrates hot shards between DN
	// groups online, and verifies convergence (internal/autopilot). With
	// Interval 0 the controller is built but only tests tick it.
	Autopilot *autopilot.Config
	// StatementTimeout bounds each statement's wall time end to end: the
	// deadline is set at Session.Execute, rides every branch RPC as
	// metadata, and unparks 2PC durability waits, Paxos commit waiters
	// and batch-exchange parks when it expires. 0 (the default) disables
	// deadlines entirely — the legacy unbounded path, byte for byte.
	// Sessions can override per session with SetStatementTimeout.
	StatementTimeout time.Duration
	// Admission, when non-nil with MaxConcurrent > 0, enables per-CN
	// admission control: a bounded execution semaphore with priority
	// classes (TP auto-commit > TP in-txn > AP), per-tenant quotas,
	// queue-wait shedding (retryable ErrOverloaded) and AP brownout.
	// Nil (the default) keeps the unguarded legacy execution path.
	Admission *admission.Config
}

func (c Config) withDefaults() Config {
	if c.DCs <= 0 {
		c.DCs = 1
	}
	if c.CNsPerDC <= 0 {
		c.CNsPerDC = 2
	}
	if c.DNGroups <= 0 {
		c.DNGroups = 2
	}
	if c.Oracle == "" {
		c.Oracle = OracleHLC
	}
	if c.InDoubtTimeout <= 0 {
		c.InDoubtTimeout = 2 * time.Second
	}
	if c.RecoveryInterval <= 0 {
		c.RecoveryInterval = 500 * time.Millisecond
	}
	return c
}

// Cluster is a running PolarDB-X deployment.
type Cluster struct {
	cfg Config
	Net *simnet.Network
	GMS *gms.GMS
	FS  *polarfs.Cluster

	mu  sync.Mutex
	dns map[string]*dn.Instance // leader instances by group name
	// followers holds non-leader instances of multi-DC groups.
	followers map[string][]*dn.Instance
	cns       []*CN
	tsoServer *tso.Server
	// apTargets lists the RO replicas per DN leader enabled for AP
	// serving; empty = route AP to the RW leader (Fig. 9 configs 1-2).
	apTargets map[string][]*dn.RO

	// colIdxEpoch versions cluster state that changes plan validity but
	// never touches the GMS catalog (AP replica targets, column indexes,
	// DN rerouting). planEpoch folds it into the schema epoch so CN
	// caches keyed by epoch see those changes too.
	colIdxEpoch atomic.Uint64

	// stopCh terminates the background recovery loop; recoveryRuns counts
	// completed sweeps (observability + test synchronization).
	stopCh       chan struct{}
	stopOnce     sync.Once
	recoveryRuns atomic.Uint64

	// migrator is the dedicated coordinator that shard migrations copy
	// data through — the same 2PC/replication path queries use, so chaos
	// faults exercise migration retry like any other traffic.
	migrator *txn.Coordinator
	// dnRetry holds the per-destination circuit breakers and retry
	// budgets shared by control-plane callers (shard migration sync):
	// one breaker per DN endpoint, so a dead DN costs one probe per
	// cooldown instead of a full retry ladder per call.
	dnRetry *retry.Group
	// ap is the elastic autopilot controller; nil unless Config.Autopilot.
	ap *autopilot.Controller

	// metrics is the cluster metrics registry; nil unless Config.Metrics.
	metrics *obs.Registry
	// slowMu guards the bounded in-memory slow-query log, kept as a ring:
	// slowQueries fills to slowQueryLogCap, then slowHead marks the oldest
	// entry and new entries overwrite in place. The earlier
	// shift-left-on-append version was O(cap) memmove per slow statement
	// under the log lock — with thousands of sessions crossing the
	// threshold at once (a jittered DN group), the log itself became a
	// contention wall.
	slowMu      sync.Mutex
	slowQueries []SlowQuery
	slowHead    int

	seq uint32
}

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	SQL      string
	Duration time.Duration
	CN       string
}

// slowQueryLogCap bounds the in-memory slow-query log; older entries are
// dropped first.
const slowQueryLogCap = 256

// noteSlowQuery records a statement that crossed the slow threshold.
func (c *Cluster) noteSlowQuery(query string, d time.Duration, cnName string) {
	entry := SlowQuery{SQL: query, Duration: d, CN: cnName}
	c.slowMu.Lock()
	if len(c.slowQueries) < slowQueryLogCap {
		c.slowQueries = append(c.slowQueries, entry)
	} else {
		// Full: overwrite the oldest slot and advance the ring head.
		c.slowQueries[c.slowHead] = entry
		c.slowHead = (c.slowHead + 1) % slowQueryLogCap
	}
	c.slowMu.Unlock()
}

// SlowQueries returns a copy of the slow-query log, oldest first.
func (c *Cluster) SlowQueries() []SlowQuery {
	c.slowMu.Lock()
	defer c.slowMu.Unlock()
	out := make([]SlowQuery, 0, len(c.slowQueries))
	out = append(out, c.slowQueries[c.slowHead:]...)
	out = append(out, c.slowQueries[:c.slowHead]...)
	return out
}

// Metrics exposes the cluster registry (nil unless Config.Metrics).
func (c *Cluster) Metrics() *obs.Registry { return c.metrics }

// MetricsSnapshot renders every cluster metric as text: the registry
// (RPC latency, txn outcomes, quorum waits), per-CN plan-cache
// counters, and the process-wide batch-pool and exchange-wait stats.
// Lines are globally sorted by key, so two snapshots diff cleanly —
// convergence tests and humans rely on the deterministic order.
func (c *Cluster) MetricsSnapshot() string {
	var lines []string
	if c.metrics != nil {
		if snap := c.metrics.Snapshot(); snap != "" {
			lines = strings.Split(strings.TrimRight(snap, "\n"), "\n")
		}
	}
	var hits, misses uint64
	for _, cn := range c.CNs() {
		h, m := cn.PlanCacheStats()
		hits += h
		misses += m
	}
	lines = append(lines,
		fmt.Sprintf("plancache.hits %d", hits),
		fmt.Sprintf("plancache.misses %d", misses))
	gets, puts, dbl := vector.PoolStats()
	lines = append(lines,
		fmt.Sprintf("vector.pool_gets %d", gets),
		fmt.Sprintf("vector.pool_puts %d", puts),
		fmt.Sprintf("vector.pool_double_releases %d", dbl))
	waits, total := executor.ExchangeWaitStats()
	lines = append(lines,
		fmt.Sprintf("executor.exchange_waits %d", waits),
		fmt.Sprintf("executor.exchange_wait_total %v", total))
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// planEpoch is the version CN plan and routing caches key on: any DDL
// (schema epoch) or routing/column-index change (colIdxEpoch) moves it.
func (c *Cluster) planEpoch() uint64 {
	return c.GMS.SchemaEpoch() + c.colIdxEpoch.Load()
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	topo := simnet.ZeroTopology()
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	c := &Cluster{
		cfg:       cfg,
		Net:       simnet.New(topo),
		GMS:       gms.New(),
		dns:       make(map[string]*dn.Instance),
		followers: make(map[string][]*dn.Instance),
		apTargets: make(map[string][]*dn.RO),
		stopCh:    make(chan struct{}),
	}
	if cfg.FaultPlan != nil {
		c.Net.ApplyFaultPlan(*cfg.FaultPlan)
	}
	if cfg.Metrics {
		c.metrics = obs.NewRegistry()
		c.Net.SetMetrics(&simnet.NetMetrics{
			IntraDC:     c.metrics.Histogram("rpc.intra_dc"),
			InterDC:     c.metrics.Histogram("rpc.inter_dc"),
			Calls:       c.metrics.Counter("rpc.calls"),
			Errors:      c.metrics.Counter("rpc.errors"),
			LateReplies: c.metrics.Counter("rpc.late_replies"),
		})
	}
	if cfg.WithPolarFS {
		c.FS = polarfs.NewCluster(c.Net, 0)
		for d := 0; d < cfg.DCs; d++ {
			for i := 0; i < 3; i++ {
				if _, err := c.FS.AddServer(fmt.Sprintf("sn-dc%d-%d", d+1, i), simnet.DC(d)); err != nil {
					return nil, err
				}
			}
		}
	}
	if cfg.Oracle == OracleTSO {
		c.tsoServer = tso.NewServer(c.Net, "tso", simnet.DC1)
	}
	// DN groups.
	for g := 0; g < cfg.DNGroups; g++ {
		if err := c.addDNGroup(g); err != nil {
			return nil, err
		}
	}
	// CNs.
	for d := 0; d < cfg.DCs; d++ {
		for i := 0; i < cfg.CNsPerDC; i++ {
			c.addCN(simnet.DC(d))
		}
	}
	// The migration coordinator: its own endpoint so chaos plans can
	// target (and crash) migrations independently of query traffic.
	c.Net.Register(migratorName, simnet.DC1, func(string, any) (any, error) { return nil, nil })
	var migOracle txn.Oracle
	if cfg.Oracle == OracleTSO {
		migOracle = txn.NewTSOOracle(tso.NewClient(c.Net, migratorName, "tso"))
	} else {
		migOracle = txn.NewHLCOracle(hlc.NewClock(nil))
	}
	c.migrator = txn.NewCoordinator(c.Net, migratorName, migOracle)
	c.dnRetry = retry.NewGroup(retry.BreakerConfig{
		Opened: c.metrics.Counter("breaker.open"),
		Probes: c.metrics.Counter("breaker.probes"),
	})
	if cfg.Autopilot != nil {
		c.ap = autopilot.New(*cfg.Autopilot, c.ElasticTarget(), c.metrics)
		c.ap.Start()
	}
	go c.recoveryLoop()
	return c, nil
}

// Autopilot returns the elastic controller (nil unless Config.Autopilot).
func (c *Cluster) Autopilot() *autopilot.Controller { return c.ap }

// addDNGroup provisions DN group g: one instance per DC in MultiDC mode
// (leader in DC g%DCs), else a single instance.
func (c *Cluster) addDNGroup(g int) error {
	group := fmt.Sprintf("dng%d", g)
	leaderDC := simnet.DC(g % c.cfg.DCs)
	var members []paxos.Member
	if c.cfg.MultiDC {
		for d := 0; d < c.cfg.DCs; d++ {
			members = append(members, paxos.Member{
				Name: fmt.Sprintf("%s-dc%d", group, d+1), DC: simnet.DC(d)})
		}
	} else {
		members = []paxos.Member{{Name: group + "-a", DC: leaderDC}}
	}
	leaderIdx := 0
	if c.cfg.MultiDC {
		leaderIdx = int(leaderDC) // the member living in the leader DC
	}
	var leader *dn.Instance
	for idx, m := range members {
		var vol *polarfs.Volume
		if c.FS != nil {
			v, err := c.FS.CreateVolume("vol-"+m.Name, m.DC)
			if err != nil {
				return err
			}
			vol = v
		}
		inst, err := dn.NewInstance(dn.Config{
			Name: m.Name, DC: m.DC, Net: c.Net,
			Group: group, Members: members,
			Bootstrap:   idx == leaderIdx,
			Volume:      vol,
			ServiceRate: c.cfg.DNServiceRate,
			// Benchmark clusters run heavy goroutine load on one host;
			// a generous election timeout keeps scheduler hiccups from
			// triggering spurious leader changes mid-experiment.
			ElectionTimeout: 2 * time.Second,
			InDoubtAfter:    c.cfg.InDoubtTimeout,
			Metrics:         c.metrics,
		})
		if err != nil {
			return err
		}
		if idx == leaderIdx {
			leader = inst
		} else {
			c.mu.Lock()
			c.followers[group] = append(c.followers[group], inst)
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.dns[group] = leader
	c.mu.Unlock()
	c.GMS.RegisterDN(leader.Name(), leader.DC())
	for r := 0; r < c.cfg.ROsPerDN; r++ {
		roName := fmt.Sprintf("%s-ro%d", leader.Name(), r+1)
		if _, err := leader.AddRO(roName); err != nil {
			return err
		}
		if err := c.GMS.RegisterRO(leader.Name(), roName); err != nil {
			return err
		}
	}
	return nil
}

// addCN provisions a computation node in a DC.
func (c *Cluster) addCN(dc simnet.DC) *CN {
	c.mu.Lock()
	c.seq++
	name := fmt.Sprintf("cn%d-dc%d", c.seq, int(dc)+1)
	c.mu.Unlock()
	c.Net.Register(name, dc, func(string, any) (any, error) { return nil, nil })

	var oracle txn.Oracle
	if c.cfg.Oracle == OracleTSO {
		oracle = txn.NewTSOOracle(tso.NewClient(c.Net, name, "tso"))
	} else {
		oracle = txn.NewHLCOracle(hlc.NewClock(nil))
	}
	cn := &CN{
		name:      name,
		dc:        dc,
		cluster:   c,
		coord:     txn.NewCoordinator(c.Net, name, oracle),
		sched:     htap.NewScheduler(c.cfg.SchedulerCfg),
		planCache: optimizer.NewPlanCache(0),
	}
	if c.metrics != nil {
		cn.coord.SetMetrics(c.metrics)
		cn.mPCHit = c.metrics.Counter("plancache.hit")
		cn.mPCMiss = c.metrics.Counter("plancache.miss")
	}
	// Registry.Counter/Histogram are nil-safe, so the instruments exist
	// (as no-ops) even with metrics off; every CN shares the cluster's
	// counters so MetricsSnapshot sees fleet-wide admission totals.
	cn.admMetrics = admission.Metrics{
		Admitted:         c.metrics.Counter("admission.admitted"),
		Shed:             c.metrics.Counter("admission.shed"),
		Brownout:         c.metrics.Counter("admission.brownout"),
		DeadlineExceeded: c.metrics.Counter("deadline.exceeded"),
		QueueWait:        c.metrics.Histogram("admission.queue_wait"),
	}
	if ac := c.cfg.Admission; ac != nil && ac.MaxConcurrent > 0 {
		cn.admit = admission.New(*ac, cn.admMetrics)
	}
	cn.opt = optimizer.New(c.GMS, statsAdapter{c}, optimizer.Options{
		TPCostThreshold: c.cfg.TPCostThreshold,
		MPPAvailable:    !c.cfg.MPPOff,
		HasColumnIndex:  cn.hasColumnIndex,
	})
	c.mu.Lock()
	c.cns = append(c.cns, cn)
	c.mu.Unlock()
	c.GMS.RegisterCN(name, dc)
	return cn
}

// AddCN scales the CN tier at runtime (stateless, §II-A).
func (c *Cluster) AddCN(dc simnet.DC) *CN { return c.addCN(dc) }

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	if c.ap != nil {
		c.ap.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.cns {
		cn.sched.Stop()
	}
	for _, inst := range c.dns {
		inst.Stop()
	}
	for _, fs := range c.followers {
		for _, inst := range fs {
			inst.Stop()
		}
	}
}

// CN returns a computation node, preferring the caller's datacenter —
// the load balancer's locality policy (§II-A). With no CN in the DC, any
// CN is returned (cross-DC failover).
func (c *Cluster) CN(dc simnet.DC) *CN {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.cns {
		if cn.dc == dc {
			return cn
		}
	}
	return c.cns[0]
}

// CNs lists all computation nodes.
func (c *Cluster) CNs() []*CN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*CN(nil), c.cns...)
}

// DNGroup resolves a DN group's leader instance.
func (c *Cluster) DNGroup(name string) (*dn.Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.dns[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown DN group %q", name)
	}
	return inst, nil
}

// RerouteDNGroup re-resolves a DN group's leader after a failover and
// repoints all GMS shard placements at it: the paper's §II-A flow where
// "if the leader node crashes, a follower will be elected as the new
// leader ... GMS detects the change and updates routing". It waits
// (bounded) for the group's election to settle, swaps the cluster's
// leader handle, rewrites placement via GMS.ReplaceDN, and re-attaches
// fresh read-only replicas to the new leader. Returns the new leader's
// name (which may be the old one if leadership healed in place).
func (c *Cluster) RerouteDNGroup(group string) (string, error) {
	c.mu.Lock()
	old := c.dns[group]
	cands := append([]*dn.Instance(nil), c.followers[group]...)
	c.mu.Unlock()
	if old == nil {
		return "", fmt.Errorf("core: unknown DN group %q", group)
	}
	var leader *dn.Instance
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if old.Paxos().HoldsLease() && !c.Net.IsDown(old.Name()) {
			return old.Name(), nil // healed in place; routing is already right
		}
		for _, f := range cands {
			// The new leader must hold the lease AND have applied the
			// log prefix it accepted as a follower, or early reads
			// would miss the previous leader's final commits.
			if f.Paxos().HoldsLease() && f.Paxos().LeaderCaughtUp() {
				leader = f
				break
			}
		}
		if leader != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leader == nil {
		return "", fmt.Errorf("core: DN group %q has no live leader", group)
	}
	c.mu.Lock()
	c.dns[group] = leader
	rest := make([]*dn.Instance, 0, len(cands))
	for _, f := range cands {
		if f != leader {
			rest = append(rest, f)
		}
	}
	c.followers[group] = append(rest, old)
	delete(c.apTargets, old.Name())
	c.mu.Unlock()
	c.colIdxEpoch.Add(1) // routing moved: cached plans/colindex answers stale
	if err := c.GMS.ReplaceDN(old.Name(), leader.Name(), leader.DC()); err != nil {
		return "", err
	}
	// Attach fresh ROs to the new leader (the old leader's replicas fed
	// off its redo stream and die with it). Skip if this instance led
	// before and still owns replicas.
	if len(leader.ROs()) == 0 {
		for r := 0; r < c.cfg.ROsPerDN; r++ {
			roName := fmt.Sprintf("%s-ro%d", leader.Name(), r+1)
			if _, err := leader.AddRO(roName); err != nil {
				return "", err
			}
			if err := c.GMS.RegisterRO(leader.Name(), roName); err != nil {
				return "", err
			}
		}
	}
	return leader.Name(), nil
}

// HealDNRouting scans every multi-node DN group and re-routes the ones
// whose registered leader no longer holds the Paxos lease. This is the
// GMS health-check loop, exposed as a method so tests and the retry
// path can invoke it deterministically. It returns the groups that were
// re-routed.
func (c *Cluster) HealDNRouting() []string {
	c.mu.Lock()
	type probe struct {
		group  string
		leader *dn.Instance
		multi  bool
	}
	probes := make([]probe, 0, len(c.dns))
	for g, inst := range c.dns {
		probes = append(probes, probe{g, inst, len(c.followers[g]) > 0})
	}
	c.mu.Unlock()
	var healed []string
	for _, p := range probes {
		if !p.multi {
			continue
		}
		// A crashed node can still believe its (time-based) lease is
		// valid; the network view breaks the tie, like GMS's heartbeat
		// probe would.
		if p.leader.Paxos().HoldsLease() && !c.Net.IsDown(p.leader.Name()) {
			continue
		}
		if _, err := c.RerouteDNGroup(p.group); err == nil {
			healed = append(healed, p.group)
		}
	}
	sort.Strings(healed)
	return healed
}

// FailDNLeader simulates a crash of a group's current leader (network
// isolation, as a DC power loss would look to the rest of the cluster)
// and returns the downed instance's name.
func (c *Cluster) FailDNLeader(group string) (string, error) {
	c.mu.Lock()
	inst := c.dns[group]
	c.mu.Unlock()
	if inst == nil {
		return "", fmt.Errorf("core: unknown DN group %q", group)
	}
	c.Net.SetDown(inst.Name(), true)
	c.Net.SetDown(inst.Paxos().Endpoint(), true)
	for _, ro := range inst.ROs() {
		c.Net.SetDown(ro.Name(), true)
	}
	return inst.Name(), nil
}

// EnableAPReplicas marks n RO replicas per DN group as AP-serving
// targets (Fig. 9 configs 3-6: "we use one to four dedicated RO nodes
// respectively, and reroute the reads in TPC-H to them"). n = 0 routes
// AP back to the RW leader.
func (c *Cluster) EnableAPReplicas(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for group, inst := range c.dns {
		ros := inst.ROs()
		if n > len(ros) {
			return fmt.Errorf("core: DN %s has %d ROs, want %d", group, len(ros), n)
		}
		c.apTargets[inst.Name()] = ros[:n]
	}
	c.colIdxEpoch.Add(1)
	return nil
}

// EnableColumnIndexes builds in-memory column indexes for a logical
// table on every AP-serving RO replica.
func (c *Cluster) EnableColumnIndexes(table string) error {
	t, err := c.GMS.Table(table)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, inst := range c.dns {
		for _, ro := range c.apTargets[inst.Name()] {
			var ids []uint32
			for shard := 0; shard < t.Shards; shard++ {
				dnName, err := c.GMS.DNForShard(table, shard)
				if err == nil && dnName == inst.Name() {
					ids = append(ids, t.PhysicalTableID(shard))
				}
			}
			if len(ids) == 0 {
				continue
			}
			if err := ro.EnableColumnIndex(ids, 1); err != nil {
				return err
			}
		}
	}
	c.colIdxEpoch.Add(1)
	return nil
}

// statsAdapter exposes committed row counts to the optimizer by summing
// physical shard counts on the owning DNs.
type statsAdapter struct{ c *Cluster }

// RowCount implements optimizer.Stats.
func (s statsAdapter) RowCount(table string) int64 {
	t, err := s.c.GMS.Table(table)
	if err != nil {
		return 0
	}
	var total int64
	for shard := 0; shard < t.Shards; shard++ {
		dnName, err := s.c.GMS.DNForShard(table, shard)
		if err != nil {
			continue
		}
		s.c.mu.Lock()
		var inst *dn.Instance
		for _, i := range s.c.dns {
			if i.Name() == dnName {
				inst = i
				break
			}
		}
		s.c.mu.Unlock()
		if inst == nil {
			continue
		}
		if tbl, err := inst.Engine().Table(t.PhysicalTableID(shard)); err == nil {
			total += tbl.RowCount()
		}
	}
	return total
}

// errUnsupported wraps statement-dispatch misses.
var errUnsupported = errors.New("core: unsupported statement")

// WaitROConvergence blocks until every RO replica has applied redo up to
// its group's DLSN, read when the wait for that replica starts
// (test/bench helper). A halted replica — evicted, or stopped — is not
// waited for: it will never catch up. On timeout the error names a lagging
// replica, how far it got, and the group's DLSN and redo base.
func (c *Cluster) WaitROConvergence(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	insts := make([]*dn.Instance, 0, len(c.dns))
	for _, inst := range c.dns {
		insts = append(insts, inst)
	}
	c.mu.Unlock()
	for _, inst := range insts {
		for _, ro := range inst.ROs() {
			dlsn := inst.Paxos().DLSN()
			if err := ro.WaitApplied(dlsn, deadline); errors.Is(err, obs.ErrDeadlineExceeded) {
				return fmt.Errorf("core: RO convergence timeout: %s applied %d, %s dlsn %d base %d",
					ro.Name(), ro.AppliedLSN(), inst.Name(), dlsn, inst.Paxos().Log().BaseLSN())
			}
		}
	}
	return nil
}
