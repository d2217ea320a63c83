package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/dn"
	"repro/internal/gms"
	"repro/internal/hotspot"
	"repro/internal/htap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// CN is one computation node: SQL endpoint, HTAP optimizer, transaction
// coordinator and local scheduler (§II-A: "CN servers are stateless").
type CN struct {
	name    string
	dc      simnet.DC
	cluster *Cluster
	coord   *txn.Coordinator
	opt     *optimizer.Optimizer
	sched   *htap.Scheduler
	// roCounter round-robins AP reads across a DN's replicas, across
	// queries (per-query rotation would pin load to the first RO).
	roCounter atomic.Uint64
	// traffic, when non-nil, meters statements per SQL class and clamps
	// anomalous classes (§VIII automated traffic control).
	traffic *hotspot.Controller
	// admit, when non-nil, is the CN's admission gate (Config.Admission):
	// a bounded execution semaphore with priority classes, per-tenant
	// quotas, queue-wait shedding and AP brownout.
	admit *admission.Controller
	// admMetrics holds the admission instruments. They are the same
	// registry counters the controller uses, kept here so paths that
	// shed without consulting the controller (AP memory admission) land
	// in the same metrics. All fields are nil-safe when metrics are off.
	admMetrics admission.Metrics
	// planCache caches plan skeletons by statement fingerprint.
	planCache *optimizer.PlanCache
	// mPCHit/mPCMiss count plan-cache outcomes in the cluster registry
	// (nil when metrics are off; Counter methods are nil-safe).
	mPCHit, mPCMiss *obs.Counter
	// colIdxCache memoizes hasColumnIndex per table: the raw lookup walks
	// every DN, RO and shard under the cluster mutex, which is far too
	// expensive to repeat on every SELECT plan. Entries (colIdxAnswer,
	// keyed by table name) carry the cluster plan epoch, so any DDL or
	// routing change invalidates them. A sync.Map rather than a mutexed
	// map: every SELECT on the CN consults it, and at front-door session
	// counts a single mutex here was a measurable contention wall.
	colIdxCache sync.Map
}

// colIdxAnswer is one memoized hasColumnIndex result.
type colIdxAnswer struct {
	epoch uint64
	has   bool
}

// Name returns the CN endpoint name.
func (cn *CN) Name() string { return cn.name }

// DC returns the CN's datacenter.
func (cn *CN) DC() simnet.DC { return cn.dc }

// Scheduler exposes the CN's local scheduler (benchmarks).
func (cn *CN) Scheduler() *htap.Scheduler { return cn.sched }

// hasColumnIndex reports whether any AP target RO maintains a column
// index for the table (optimizer callback). Answers are cached per table
// and invalidated by the cluster plan epoch.
func (cn *CN) hasColumnIndex(table string) bool {
	epoch := cn.cluster.planEpoch()
	if v, ok := cn.colIdxCache.Load(table); ok {
		if a := v.(colIdxAnswer); a.epoch == epoch {
			return a.has
		}
	}
	has := cn.lookupColumnIndex(table)
	cn.colIdxCache.Store(table, colIdxAnswer{epoch: epoch, has: has})
	return has
}

// lookupColumnIndex is the uncached walk behind hasColumnIndex.
func (cn *CN) lookupColumnIndex(table string) bool {
	t, err := cn.cluster.GMS.Table(table)
	if err != nil {
		return false
	}
	c := cn.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ros := range c.apTargets {
		for _, ro := range ros {
			for shard := 0; shard < t.Shards; shard++ {
				if _, ok := ro.ColumnIndex(t.PhysicalTableID(shard)); ok {
					return true
				}
			}
		}
	}
	return false
}

// planFor plans a SELECT through the fingerprinted plan cache: a hit
// skips the full optimizer pipeline and only re-binds parameters and
// recomputes value-dependent shard routing. Statements that cannot be
// fingerprinted (residual subqueries) plan directly. The caller must
// have rewritten subqueries already — fingerprints are taken over the
// post-rewrite AST so two queries whose subqueries resolved differently
// never share a skeleton.
func (cn *CN) planFor(sel *sql.Select, tr *obs.Trace) (*optimizer.Plan, error) {
	span := tr.StartSpan(nil, "plan")
	defer span.End()
	fp, params, ok := sql.FingerprintSelect(sel)
	if !ok {
		span.Annotate("cache=uncacheable")
		return cn.opt.PlanSelect(sel)
	}
	epoch := cn.cluster.planEpoch()
	if plan := cn.planCache.Lookup(fp, epoch, params); plan != nil {
		cn.mPCHit.Inc()
		span.Annotate("cache=hit")
		return plan, nil
	}
	plan, err := cn.opt.PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	cn.planCache.Store(fp, epoch, plan, params)
	cn.mPCMiss.Inc()
	span.Annotate("cache=miss")
	return plan, nil
}

// PlanCacheStats returns the CN's plan-cache hit/miss counters.
func (cn *CN) PlanCacheStats() (hits, misses uint64) {
	return cn.planCache.Stats()
}

// Result is a statement's outcome.
type Result struct {
	// Columns and Rows hold SELECT output.
	Columns []string
	Rows    []types.Row
	// Affected counts DML rows.
	Affected int
	// Plan carries the optimizer's plan for SELECTs (EXPLAIN surface).
	Plan *optimizer.Plan
	// Trace is the statement's span tree when Config.Tracing is on.
	Trace *obs.Trace
}

// Session is a client connection to a CN: it holds the open transaction
// (if any) and the session-consistency watermarks per DN group.
type Session struct {
	cn *CN
	mu sync.Mutex
	tx *txn.Tx
	// lsnByDN tracks the session's last write LSN per DN group so RO
	// reads can enforce read-your-writes (§II-C session consistency).
	lsnByDN map[string]wal.LSN
	// curTrace is the in-flight statement's trace (Config.Tracing only);
	// lastTrace keeps the most recently finished one for inspection.
	curTrace  *obs.Trace
	lastTrace *obs.Trace
	// tenant tags this session's statements for per-tenant admission
	// quotas ("" is a valid shared tenant).
	tenant string
	// stmtTimeout overrides Config.StatementTimeout for this session:
	// 0 inherits the cluster default, < 0 disables deadlines entirely.
	stmtTimeout time.Duration
	// curDeadline is the in-flight statement's absolute deadline (zero
	// when deadlines are off); set by Execute, read by every layer the
	// statement touches via deadline().
	curDeadline time.Time
	// inflight guards against concurrent statements on one session. The
	// old behavior — silently serializing on mu — charged the second
	// caller's queue time against its own statement deadline, invisibly.
	// Now the overlap is detected up front and reported as the retryable
	// ErrSessionBusy; the wire server gives each connection its own
	// session, so a slow statement can never wedge another connection.
	inflight atomic.Bool
}

// ErrSessionBusy reports concurrent use of one session: a statement was
// submitted while another was still executing. It is retryable — the
// session is healthy, the caller simply must wait for (or not overlap
// with) the in-flight statement. Sessions are single-statement by
// design; concurrency belongs at the connection level.
var ErrSessionBusy = errors.New("core: session busy: a statement is already executing (retryable)")

// beginStmt claims the session's single statement slot.
func (s *Session) beginStmt() error {
	if !s.inflight.CompareAndSwap(false, true) {
		return ErrSessionBusy
	}
	return nil
}

// endStmt releases the slot claimed by beginStmt.
func (s *Session) endStmt() { s.inflight.Store(false) }

// SetTenant tags the session for per-tenant admission quotas.
func (s *Session) SetTenant(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenant = name
}

// SetStatementTimeout overrides the cluster statement timeout for this
// session: 0 inherits Config.StatementTimeout, negative disables
// deadlines for this session even when the cluster sets one.
func (s *Session) SetStatementTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stmtTimeout = d
}

// statementTimeout resolves the effective timeout for the next
// statement (0 = no deadline).
func (s *Session) statementTimeout() time.Duration {
	s.mu.Lock()
	o := s.stmtTimeout
	s.mu.Unlock()
	if o != 0 {
		if o < 0 {
			return 0
		}
		return o
	}
	return s.cn.cluster.cfg.StatementTimeout
}

// deadline returns the in-flight statement's absolute deadline (zero
// when deadlines are off).
func (s *Session) deadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curDeadline
}

// tenantName returns the session's admission tenant.
func (s *Session) tenantName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenant
}

// admit reserves an execution slot from the CN admission controller,
// classifying the statement by priority (TP auto-commit > TP in-txn >
// AP). The returned release must be called when execution finishes;
// with admission disabled it is a no-op and admit never sheds.
func (s *Session) admit(ap bool) (release func(), err error) {
	ac := s.cn.admit
	if ac == nil {
		return func() {}, nil
	}
	class := admission.TPAuto
	switch {
	case ap:
		class = admission.AP
	case s.InTxn():
		class = admission.TPTxn
	}
	return ac.Admit(s.tenantName(), class, s.deadline())
}

// LastTrace returns the span tree of the most recent traced statement
// (nil when tracing is off or nothing ran yet).
func (s *Session) LastTrace() *obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

// trace returns the in-flight statement trace (nil when tracing is off).
func (s *Session) trace() *obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curTrace
}

// NewSession opens a session on this CN.
func (cn *CN) NewSession() *Session {
	return &Session{cn: cn, lsnByDN: make(map[string]wal.LSN)}
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// BeginTxn opens an explicit transaction.
func (s *Session) BeginTxn() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return fmt.Errorf("core: transaction already open")
	}
	tx, err := s.cn.coord.Begin()
	if err != nil {
		return err
	}
	s.tx = tx
	return nil
}

// Commit commits the open transaction.
func (s *Session) Commit() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	s.mu.Unlock()
	if tx == nil {
		return fmt.Errorf("core: no open transaction")
	}
	// COMMIT is its own statement: give the 2PC rounds a fresh deadline.
	if to := s.statementTimeout(); to > 0 {
		tx.SetDeadline(time.Now().Add(to))
	} else {
		tx.SetDeadline(time.Time{})
	}
	if s.cn.cluster.cfg.Tracing {
		// Explicit COMMIT gets its own trace: the 2PC phase spans
		// (prepare / commit-point / commit per DN) hang off its root.
		tr := obs.NewTrace("COMMIT", obs.Wall)
		tx.SetTrace(tr, nil)
		defer func() {
			tr.End()
			s.mu.Lock()
			s.lastTrace = tr
			s.mu.Unlock()
		}()
	}
	_, err := tx.Commit()
	s.absorb(tx)
	return err
}

// Rollback aborts the open transaction.
func (s *Session) Rollback() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	s.mu.Unlock()
	if tx == nil {
		return fmt.Errorf("core: no open transaction")
	}
	return tx.Abort()
}

// absorb folds a finished transaction's branch LSNs into the session
// watermarks.
func (s *Session) absorb(tx *txn.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for dnName, lsn := range tx.BranchLSNs() {
		if lsn > s.lsnByDN[dnName] {
			s.lsnByDN[dnName] = lsn
		}
	}
}

// minLSNFor returns the session watermark for a DN group.
func (s *Session) minLSNFor(dnName string) wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsnByDN[dnName]
}

// txnFor returns the open transaction or an auto-commit one; done must
// be called with the execution error.
func (s *Session) txnFor() (tx *txn.Tx, done func(error) error, err error) {
	s.mu.Lock()
	tr := s.curTrace
	dl := s.curDeadline
	if s.tx != nil {
		tx = s.tx
		s.mu.Unlock()
		if tr != nil {
			// Re-point the open transaction's spans at the current
			// statement's trace: each statement owns its own tree.
			tx.SetTrace(tr, nil)
		}
		// Each statement re-arms (or, at zero, clears) the transaction
		// deadline: deadlines are per statement, not per transaction.
		tx.SetDeadline(dl)
		return tx, func(execErr error) error { return execErr }, nil
	}
	s.mu.Unlock()
	tx, err = s.cn.coord.Begin()
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tx.SetTrace(tr, nil)
	}
	tx.SetDeadline(dl)
	return tx, func(execErr error) error {
		if execErr != nil {
			_ = tx.Abort()
			return execErr
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		s.absorb(tx)
		return nil
	}, nil
}

// Execute parses and runs one SQL statement. Submitting a statement
// while another is still executing on the same session fails fast with
// ErrSessionBusy.
func (s *Session) Execute(query string) (*Result, error) {
	if err := s.beginStmt(); err != nil {
		return nil, err
	}
	defer s.endStmt()
	return s.run(query, nil)
}

// run is the statement pipeline shared by Execute and Prepared.Execute:
// traffic control, deadline arming, tracing, dispatch (with the
// auto-commit retry ladders) and slow-query logging. stmt, when non-nil,
// is the pre-parsed statement to run; query is always the statement text
// (traffic fingerprinting, traces and the slow-query log key on it). The
// caller must hold the session's statement slot (beginStmt).
func (s *Session) run(query string, stmt sql.Statement) (*Result, error) {
	if tc := s.cn.traffic; tc != nil {
		ok, release := tc.Admit(hotspot.Fingerprint(query))
		if !ok {
			return nil, ErrThrottled
		}
		defer release()
	}
	cfg := &s.cn.cluster.cfg
	// Arm the statement deadline before anything can block: it rides
	// every branch RPC as metadata and bounds admission queueing, 2PC
	// durability waits and batch-exchange parks downstream.
	var deadline time.Time
	if to := s.statementTimeout(); to > 0 {
		deadline = time.Now().Add(to)
	}
	s.mu.Lock()
	s.curDeadline = deadline
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.curDeadline = time.Time{}
		s.mu.Unlock()
	}()
	var tr *obs.Trace
	if cfg.Tracing {
		tr = obs.NewTrace(query, obs.Wall)
		s.mu.Lock()
		s.curTrace = tr
		s.mu.Unlock()
	}
	var start time.Time
	if tr != nil || cfg.SlowQueryThreshold > 0 {
		start = time.Now()
	}
	res, err := s.executeParsed(query, stmt)
	if tr != nil {
		tr.End()
		s.mu.Lock()
		s.curTrace = nil
		s.lastTrace = tr
		s.mu.Unlock()
		if res != nil {
			res.Trace = tr
		}
	}
	if th := cfg.SlowQueryThreshold; th > 0 {
		if d := time.Since(start); d >= th {
			s.cn.cluster.noteSlowQuery(query, d, s.cn.name)
		}
	}
	return res, err
}

// executeParsed is run minus observability: parse (unless the caller
// already did), dispatch, and the auto-commit retry ladders.
func (s *Session) executeParsed(query string, stmt sql.Statement) (*Result, error) {
	if stmt == nil {
		var err error
		stmt, err = sql.Parse(query)
		if err != nil {
			return nil, err
		}
	}
	res, err := s.executeStmt(stmt)
	if err != nil && !s.InTxn() && isLeaderFailure(err) {
		// The routed DN leader crashed. GMS health-checks the groups,
		// repoints routing at the newly elected leaders, and the
		// auto-commit statement (its implicit transaction aborted whole)
		// is safe to retry against the new routing. Healing before every
		// attempt is deliberate: the background recovery loop may have
		// healed routing already (making healed empty here), and retrying
		// against still-broken routing just repeats the same error.
		res, err = retry.DoValue(obs.Wall, leaderRetry, s.deadline(), isLeaderFailure,
			func() (*Result, error) {
				s.cn.cluster.HealDNRouting()
				return s.executeStmt(stmt)
			})
	}
	if err != nil && !s.InTxn() && errors.Is(err, gms.ErrShardMoving) {
		// A fenced shard (final phase of an online migration) answers
		// ErrShardMoving. The fence lasts one drain + diff-sync round, so
		// auto-commit statements wait it out with a short jittered backoff
		// and land on the new placement — migrations need no client
		// cooperation. The statement deadline (if any) cuts the ladder
		// short.
		res, err = retry.DoValue(obs.Wall, shardMoveRetry, s.deadline(),
			func(e error) bool { return errors.Is(e, gms.ErrShardMoving) },
			func() (*Result, error) { return s.executeStmt(stmt) })
	}
	return res, err
}

// leaderRetry and shardMoveRetry are the auto-commit statement retry
// ladders. Leader failover needs only a couple of quick goes once
// routing heals; the migration-fence ladder is long but capped at small
// sleeps so its worst case (~800ms jittered) still bounds how long a
// statement waits for a fence before surfacing ErrShardMoving.
var (
	leaderRetry    = retry.Policy{Attempts: 3, Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 0.5}
	shardMoveRetry = retry.Policy{Attempts: 200, Base: time.Millisecond, Cap: 4 * time.Millisecond, Jitter: 0.5}
)

// isLeaderFailure classifies errors that indicate stale leader routing:
// the DN refused as a non-leader, or the endpoint is unreachable.
func isLeaderFailure(err error) bool {
	return errors.Is(err, dn.ErrNotLeader) ||
		errors.Is(err, simnet.ErrEndpointDown) ||
		errors.Is(err, simnet.ErrPartitioned)
}

// ExecuteStmt runs a pre-built statement AST directly (the workload
// drivers' prepared-statement-style path), without deadline arming or
// the retry ladders. Like Execute it claims the session's statement
// slot, failing fast with ErrSessionBusy on concurrent use.
func (s *Session) ExecuteStmt(stmt sql.Statement) (*Result, error) {
	if err := s.beginStmt(); err != nil {
		return nil, err
	}
	defer s.endStmt()
	return s.executeStmt(stmt)
}

// executeStmt dispatches a parsed statement. DML takes its admission
// slot here (class TP auto-commit or TP in-txn); SELECTs admit inside
// runPlan, where the optimizer has already decided TP vs AP.
func (s *Session) executeStmt(stmt sql.Statement) (*Result, error) {
	switch stmt.(type) {
	case *sql.Insert, *sql.Update, *sql.Delete:
		release, err := s.admit(false)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	switch st := stmt.(type) {
	case *sql.CreateTable:
		return s.cn.createTable(st)
	case *sql.CreateIndex:
		return s.cn.createIndex(s, st)
	case *sql.Insert:
		return s.execInsert(st)
	case *sql.Update:
		return s.execUpdate(st)
	case *sql.Delete:
		return s.execDelete(st)
	case *sql.Select:
		return s.execSelect(st)
	case *sql.Explain:
		return s.execExplain(st)
	default:
		return nil, fmt.Errorf("%w: %T", errUnsupported, stmt)
	}
}

// createTable provisions a logical table in GMS and its physical shard
// tables on the owning DN groups.
func (cn *CN) createTable(st *sql.CreateTable) (*Result, error) {
	shards := st.Partitions
	if shards <= 1 && cn.cluster.cfg.DefaultShards > 0 && st.Partitions == 1 {
		shards = cn.cluster.cfg.DefaultShards
	}
	schema := st.Schema()
	t, err := cn.cluster.GMS.CreateTable(st.Name, schema, shards, st.TableGroup)
	if err != nil {
		if st.IfNotExists && strings.Contains(err.Error(), "already exists") {
			return &Result{}, nil
		}
		return nil, err
	}
	if len(st.PartitionBy) > 0 {
		if err := t.SetPartitionBy(st.PartitionBy); err != nil {
			return nil, err
		}
		// Partition routing changed after the CreateTable bump: move the
		// epoch again so nothing planned in between survives.
		cn.cluster.GMS.BumpSchemaEpoch()
	}
	for shard := 0; shard < t.Shards; shard++ {
		dnName, err := cn.cluster.GMS.DNForShard(t.Name, shard)
		if err != nil {
			return nil, err
		}
		_, err = cn.cluster.Net.Call(cn.name, dnName,
			dn.CreateTableReq{ID: t.PhysicalTableID(shard), Schema: shardSchema(schema, shard)})
		if err != nil {
			return nil, fmt.Errorf("core: create shard %d on %s: %w", shard, dnName, err)
		}
	}
	return &Result{}, nil
}

// shardSchema names one shard's physical table uniquely (several shards
// of one logical table may share a DN engine).
func shardSchema(schema *types.Schema, shard int) *types.Schema {
	cp := *schema
	cp.Name = fmt.Sprintf("%s__s%d", schema.Name, shard)
	return &cp
}

// createIndex provisions a local per-shard index or a global secondary
// index (hidden partitioned table + backfill, §II-B).
func (cn *CN) createIndex(s *Session, st *sql.CreateIndex) (*Result, error) {
	t, err := cn.cluster.GMS.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if !st.Global {
		// Local index on every shard's physical table.
		for shard := 0; shard < t.Shards; shard++ {
			dnName, err := cn.cluster.GMS.DNForShard(t.Name, shard)
			if err != nil {
				return nil, err
			}
			req := dn.CreateIndexReq{Table: t.PhysicalTableID(shard), Name: st.Name, Cols: st.Columns}
			if _, err := cn.cluster.Net.Call(cn.name, dnName, req); err != nil {
				return nil, err
			}
		}
		// Local indexes never touch the GMS catalog, so bump the epoch
		// explicitly: cached plans may now be suboptimal (and routing
		// caches must re-answer).
		cn.cluster.GMS.BumpSchemaEpoch()
		return &Result{}, nil
	}
	gi, err := cn.cluster.GMS.AddGlobalIndex(st.Table, st.Name, st.Columns, st.Clustered)
	if err != nil {
		return nil, err
	}
	// Hidden table shares the base table's placement map (same group).
	for shard := 0; shard < gi.Shards; shard++ {
		dnName, err := cn.cluster.GMS.DNForShard(t.Name, shard)
		if err != nil {
			return nil, err
		}
		if _, err := cn.cluster.Net.Call(cn.name, dnName,
			dn.CreateTableReq{ID: gi.PhysicalTableID(shard), Schema: shardSchema(gi.Schema, shard)}); err != nil {
			return nil, err
		}
	}
	// Backfill in one distributed transaction: read every base shard and
	// insert the derived index rows, one MultiWrite per DN per shard read.
	tx, err := cn.coord.Begin()
	if err != nil {
		return nil, err
	}
	n, err := func() (int, error) {
		n := 0
		for shard := 0; shard < t.Shards; shard++ {
			dnName, err := cn.cluster.GMS.DNForShard(t.Name, shard)
			if err != nil {
				return 0, err
			}
			resp, err := tx.Scan(dnName, dn.ScanReq{Table: t.PhysicalTableID(shard)})
			if err != nil {
				return 0, err
			}
			batch := newWriteBatch()
			for _, row := range resp.Rows {
				irow := gi.IndexRow(t, row)
				ishard := gi.ShardOfIndexRow(irow)
				idnName, err := cn.cluster.GMS.DNForShard(t.Name, ishard)
				if err != nil {
					return 0, err
				}
				batch.add(idnName, dn.WriteItem{Table: gi.PhysicalTableID(ishard), Op: dn.OpInsert, Row: irow})
			}
			if err := batch.flush(tx); err != nil {
				return 0, err
			}
			n += len(resp.Rows)
		}
		return n, nil
	}()
	if err != nil {
		_ = tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	if s != nil {
		s.absorb(tx)
	}
	return &Result{Affected: n}, nil
}
