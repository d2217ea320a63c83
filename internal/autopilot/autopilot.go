// Package autopilot closes the elasticity loop the paper describes in
// §V and §VIII: it periodically observes per-shard load (the window
// delta of GMS load counters), decides split/migrate/add-DN actions for
// skewed table groups, executes them online through a Target with
// bounded per-step retry and backoff, resumes or rolls back half-applied
// steps idempotently, and verifies convergence (load skew below
// threshold, p99 recovered) before acting again. A cooldown and an
// oscillation guard make it degrade to no-ops — rather than thrash —
// when signals are noisy or chaos faults are firing.
//
// The controller is deliberately decoupled from the cluster layer: it
// sees the world only through the Target interface, so the same loop
// drives shard migration in internal/core and tenant moves in
// internal/mt.
package autopilot

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gms"
	"repro/internal/obs"
)

// ErrUnsupported is returned by a Target for an action kind it cannot
// perform (e.g. splitting a hash-partitioned shard whose shard count is
// fixed). The controller degrades down the mitigation ladder instead of
// failing: an unsupported split becomes a migration.
var ErrUnsupported = errors.New("autopilot: action unsupported by target")

// Target is the cluster surface the controller drives. Implementations:
// core.Cluster (shard migration between DN groups) and mt.Cluster
// (tenant moves between RW nodes).
type Target interface {
	// Tables lists the logical tables (or pseudo-tables) to watch.
	Tables() []string
	// ShardLoads returns cumulative per-shard load counters for a table;
	// the controller diffs successive snapshots into windows itself.
	ShardLoads(table string) []int64
	// Placement returns the table's group name and the per-shard owner
	// node names.
	Placement(table string) (group string, owners []string, err error)
	// Nodes lists every candidate owner node (including freshly added,
	// still-empty ones).
	Nodes() []string
	// Migrate executes one step online. It must be idempotent: re-running
	// a step that crashed half-way resumes (or completes as a no-op if the
	// placement already flipped). A wrapped gms.ErrStalePlacement means
	// the step is obsolete and must be dropped, not retried.
	Migrate(step gms.MigrationStep) error
	// Abort rolls back a step that will not be retried further, lifting
	// any fence the half-applied step left behind.
	Abort(step gms.MigrationStep) error
	// SplitShard re-shards a hot shard by another hash function. Targets
	// with fixed shard counts return ErrUnsupported.
	SplitShard(table string, shard int) error
	// AddNode provisions a new empty node and returns its name.
	AddNode() (string, error)
	// PlanRebalance returns count-based steps that even out shard counts;
	// the controller uses it only when the load window is quiet.
	PlanRebalance() []gms.MigrationStep
}

// ActionKind classifies a decided action.
type ActionKind string

// Action kinds, in the order the mitigation ladder tries them.
const (
	ActionSplit   ActionKind = "split"
	ActionMigrate ActionKind = "migrate"
	ActionAddNode ActionKind = "add-node"
)

// Action is one decided elasticity action.
type Action struct {
	Kind   ActionKind
	Table  string // representative table of the group (split target)
	Step   gms.MigrationStep
	Reason string
}

// ActionRecord is an executed (or failed) action with its outcome.
type ActionRecord struct {
	Action
	Attempts int
	Err      error
	At       time.Time
	Resumed  bool // completed on a later tick after a failed first pass
}

// State is the controller's phase in the act→verify→cooldown loop.
type State string

// States.
const (
	StateIdle      State = "idle"
	StateVerifying State = "verifying"
	StateCooldown  State = "cooldown"
)

// Config tunes the control loop. Zero values get sane defaults.
type Config struct {
	// Interval between ticks; 0 disables the background loop (tests call
	// Tick directly).
	Interval time.Duration
	// SkewThreshold is the max/mean per-node window load ratio above
	// which a group is skewed (default 2.0).
	SkewThreshold float64
	// HotFactor feeds planShards to pick the shard to act on
	// (default 2.0).
	HotFactor float64
	// ConfirmTicks is how many consecutive skewed observations a group
	// needs before the controller acts — hysteresis against noise
	// (default 2).
	ConfirmTicks int
	// MinWindowLoad is the noise floor: windows with fewer total samples
	// than this are treated as balanced (default 100).
	MinWindowLoad int64
	// MaxActionsPerTick bounds the blast radius of one tick (default 1).
	MaxActionsPerTick int
	// MaxRetries bounds per-action retries within one tick (default 3).
	MaxRetries int
	// RetryBackoff is the base backoff between retries, doubling each
	// attempt (default 10ms).
	RetryBackoff time.Duration
	// MaxResumeTicks bounds how many later ticks a half-applied step is
	// resumed before it is rolled back via Abort (default 3).
	MaxResumeTicks int
	// Cooldown is the act-free period after a verified convergence
	// (default 500ms).
	Cooldown time.Duration
	// VerifyWindow is how long the controller waits for convergence after
	// acting before giving up and re-deciding (default 5s).
	VerifyWindow time.Duration
	// OscillationWindow is how long a completed move vetoes the reverse
	// move of the same (group, shard) (default 10s).
	OscillationWindow time.Duration
	// ScaleOutLoad: when > 0 and the mean per-node window load exceeds
	// it while no single group is skewed, the controller adds a node
	// (up to MaxNodes).
	ScaleOutLoad int64
	// MaxNodes caps scale-out (default: no scale-out unless set).
	MaxNodes int
	// IdleRebalance lets quiet windows trigger count-based PlanRebalance
	// steps (off by default; load-driven moves are the priority).
	IdleRebalance bool
	// LatencyProbe, when set, must also report recovered (p99 <=
	// P99Target) before a convergence is declared.
	LatencyProbe func() (p99 time.Duration, ok bool)
	// P99Target is the probe's recovery bound (default 100ms).
	P99Target time.Duration
	// Clock defaults to the wall clock; tests inject obs.NewFakeClock.
	Clock obs.Clock
	// Logf, when set, receives one line per decision (e.g. t.Logf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SkewThreshold <= 1 {
		c.SkewThreshold = 2.0
	}
	if c.HotFactor <= 0 {
		c.HotFactor = 2.0
	}
	if c.ConfirmTicks <= 0 {
		c.ConfirmTicks = 2
	}
	if c.MinWindowLoad <= 0 {
		c.MinWindowLoad = 100
	}
	if c.MaxActionsPerTick <= 0 {
		c.MaxActionsPerTick = 1
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.MaxResumeTicks <= 0 {
		c.MaxResumeTicks = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.VerifyWindow <= 0 {
		c.VerifyWindow = 5 * time.Second
	}
	if c.OscillationWindow <= 0 {
		c.OscillationWindow = 10 * time.Second
	}
	if c.P99Target <= 0 {
		c.P99Target = 100 * time.Millisecond
	}
	return c
}

// Controller runs the observe→decide→act→verify loop.
type Controller struct {
	cfg    Config
	target Target
	clock  obs.Clock

	mTicks, mActions, mNoops        *obs.Counter
	mRetries, mFailures, mRollbacks *obs.Counter
	mOscSkips, mCooldownSkips       *obs.Counter
	mConverged, mVerifyTimeouts     *obs.Counter
	hConverge                       *obs.Histogram

	mu         sync.Mutex
	prev       map[string][]int64 // cumulative loads at last tick, per table
	skewStreak map[string]int     // consecutive over-threshold ticks, per group
	state      State
	verifyFrom time.Time // when the verified batch was executed
	verifyBy   time.Time // convergence deadline
	coolUntil  time.Time
	lastSkew   map[string]float64
	history    []ActionRecord
	inflight   *inflightStep

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// inflightStep is a half-applied migration being resumed across ticks.
type inflightStep struct {
	action Action
	ticks  int
}

func counterOr(reg *obs.Registry, name string) *obs.Counter {
	if reg != nil {
		return reg.Counter(name)
	}
	return &obs.Counter{}
}

// New builds a controller. reg may be nil (metrics become private).
func New(cfg Config, target Target, reg *obs.Registry) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:        cfg,
		target:     target,
		clock:      obs.Or(cfg.Clock),
		prev:       make(map[string][]int64),
		skewStreak: make(map[string]int),
		state:      StateIdle,
		lastSkew:   make(map[string]float64),
		stopCh:     make(chan struct{}),

		mTicks:          counterOr(reg, "autopilot.ticks"),
		mActions:        counterOr(reg, "autopilot.actions"),
		mNoops:          counterOr(reg, "autopilot.noops"),
		mRetries:        counterOr(reg, "autopilot.action_retries"),
		mFailures:       counterOr(reg, "autopilot.action_failures"),
		mRollbacks:      counterOr(reg, "autopilot.rollbacks"),
		mOscSkips:       counterOr(reg, "autopilot.oscillation_skips"),
		mCooldownSkips:  counterOr(reg, "autopilot.cooldown_skips"),
		mConverged:      counterOr(reg, "autopilot.converged"),
		mVerifyTimeouts: counterOr(reg, "autopilot.verify_timeouts"),
	}
	if reg != nil {
		c.hConverge = reg.Histogram("autopilot.converge_time")
	} else {
		c.hConverge = &obs.Histogram{}
	}
	return c
}

// Start launches the background loop (no-op when Interval is 0).
func (c *Controller) Start() {
	if c.cfg.Interval <= 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
}

// Stop halts the background loop and waits for the tick in flight.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("autopilot: "+format, args...)
	}
}

// TickResult reports what one tick observed and did.
type TickResult struct {
	State     State
	Skew      map[string]float64 // per group, this window
	Actions   []ActionRecord     // executed (or attempted) this tick
	Converged bool               // a convergence was verified this tick
}

// Tick runs one observe→decide→act round. Safe to call concurrently with
// the background loop (a mutex serializes), but meant either/or.
func (c *Controller) Tick() TickResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mTicks.Inc()
	now := c.clock.Now()

	groups := c.observe()
	nodes := c.target.Nodes()
	res := TickResult{Skew: make(map[string]float64, len(groups))}
	for _, g := range groups {
		skew, _ := skewOf(g.Window, g.Placement, nodes)
		res.Skew[g.Group] = skew
		c.lastSkew[g.Group] = skew
	}

	// A half-applied step is finished (or rolled back) before anything
	// else: routing may be fenced until it resolves.
	if c.inflight != nil {
		rec := c.resumeInflight(now)
		res.Actions = append(res.Actions, rec)
		res.State = c.state
		return res
	}

	switch c.state {
	case StateVerifying:
		if c.convergedLocked(res.Skew, groups) {
			c.mConverged.Inc()
			c.hConverge.Observe(now.Sub(c.verifyFrom))
			c.state = StateCooldown
			c.coolUntil = now.Add(c.cfg.Cooldown)
			res.Converged = true
			c.logf("converged in %v; cooling down until %v", now.Sub(c.verifyFrom), c.coolUntil)
		} else if now.After(c.verifyBy) {
			c.mVerifyTimeouts.Inc()
			c.state = StateIdle
			c.logf("verify window expired without convergence; re-deciding")
		}
		res.State = c.state
		return res
	case StateCooldown:
		if now.Before(c.coolUntil) {
			if c.anySkewed(res.Skew, groups) {
				c.mCooldownSkips.Inc()
			}
			res.State = c.state
			return res
		}
		c.state = StateIdle
	}

	// Idle: update hysteresis streaks, then decide.
	actions := c.decide(groups, nodes, now)
	if len(actions) == 0 {
		c.mNoops.Inc()
		res.State = c.state
		return res
	}
	for _, a := range actions {
		rec := c.execute(a, now)
		res.Actions = append(res.Actions, rec)
		c.history = append(c.history, rec)
	}
	c.state = StateVerifying
	c.verifyFrom = now
	c.verifyBy = now.Add(c.cfg.VerifyWindow)
	// Acting invalidates the streaks: the next windows measure the new
	// placement from scratch.
	c.skewStreak = make(map[string]int)
	res.State = c.state
	return res
}

// observe diffs cumulative load counters into this tick's window and
// groups tables into table groups (shard i of every member is co-placed,
// so group-level window load is the sum over member tables).
func (c *Controller) observe() []GroupObs {
	byGroup := make(map[string]*GroupObs)
	var order []string
	for _, table := range c.target.Tables() {
		cur := c.target.ShardLoads(table)
		prev := c.prev[table]
		win := make([]int64, len(cur))
		for i := range cur {
			win[i] = cur[i]
			if i < len(prev) && prev[i] <= cur[i] {
				win[i] = cur[i] - prev[i]
			}
		}
		c.prev[table] = cur
		group, owners, err := c.target.Placement(table)
		if err != nil {
			continue
		}
		g, ok := byGroup[group]
		if !ok {
			g = &GroupObs{Group: group, Table: table, Placement: owners, Window: make([]int64, len(owners))}
			byGroup[group] = g
			order = append(order, group)
		}
		for i := range win {
			if i < len(g.Window) {
				g.Window[i] += win[i]
			}
		}
	}
	out := make([]GroupObs, 0, len(order))
	for _, name := range order {
		out = append(out, *byGroup[name])
	}
	return out
}

func (c *Controller) anySkewed(skews map[string]float64, groups []GroupObs) bool {
	for _, g := range groups {
		if total(g.Window) >= c.cfg.MinWindowLoad && skews[g.Group] > c.cfg.SkewThreshold {
			return true
		}
	}
	return false
}

// convergedLocked checks the verify predicate: every group's window skew
// at or below threshold (quiet windows count as converged) and, when a
// probe is wired, p99 back under target.
func (c *Controller) convergedLocked(skews map[string]float64, groups []GroupObs) bool {
	if c.anySkewed(skews, groups) {
		return false
	}
	if c.cfg.LatencyProbe != nil {
		p99, ok := c.cfg.LatencyProbe()
		if !ok || p99 > c.cfg.P99Target {
			return false
		}
	}
	return true
}

// decide updates per-group hysteresis streaks and returns the actions to
// take this tick, most-skewed group first, bounded by MaxActionsPerTick.
func (c *Controller) decide(groups []GroupObs, nodes []string, now time.Time) []Action {
	type cand struct {
		action Action
		skew   float64
	}
	var cands []cand
	var quiet = true
	var meanLoad int64
	if len(nodes) > 0 {
		var tot int64
		for _, g := range groups {
			tot += total(g.Window)
		}
		meanLoad = tot / int64(len(nodes))
	}
	for _, g := range groups {
		win := total(g.Window)
		skew, _ := skewOf(g.Window, g.Placement, nodes)
		if win >= c.cfg.MinWindowLoad {
			quiet = false
		}
		if win < c.cfg.MinWindowLoad || skew <= c.cfg.SkewThreshold {
			c.skewStreak[g.Group] = 0
			continue
		}
		c.skewStreak[g.Group]++
		if c.skewStreak[g.Group] < c.cfg.ConfirmTicks {
			c.logf("group %s skew %.2f (streak %d/%d) — confirming before acting",
				g.Group, skew, c.skewStreak[g.Group], c.cfg.ConfirmTicks)
			continue
		}
		a, ok := ChooseMove(g, nodes, c.cfg.HotFactor)
		if !ok {
			continue
		}
		if c.recentReverseMove(a.Step, now) {
			c.mOscSkips.Inc()
			c.logf("group %s shard %d: skipping %s→%s — would undo a recent move (oscillation guard)",
				a.Step.Group, a.Step.Shard, a.Step.From, a.Step.To)
			continue
		}
		cands = append(cands, cand{action: a, skew: skew})
	}
	sortCands := func(i, j int) bool { return cands[i].skew > cands[j].skew }
	sortSlice(cands, sortCands)
	var out []Action
	for _, cd := range cands {
		if len(out) >= c.cfg.MaxActionsPerTick {
			break
		}
		out = append(out, cd.action)
	}
	// Scale out when everything is hot but nothing is skewed: mean load
	// per node beyond ScaleOutLoad with headroom under MaxNodes.
	if len(out) == 0 && c.cfg.ScaleOutLoad > 0 && meanLoad > c.cfg.ScaleOutLoad &&
		len(nodes) < c.cfg.MaxNodes {
		out = append(out, Action{Kind: ActionAddNode,
			Reason: fmt.Sprintf("mean window load %d/node > %d with %d nodes", meanLoad, c.cfg.ScaleOutLoad, len(nodes))})
	}
	// Quiet window: tidy shard counts, if enabled.
	if len(out) == 0 && quiet && c.cfg.IdleRebalance {
		for _, step := range c.target.PlanRebalance() {
			if len(out) >= c.cfg.MaxActionsPerTick {
				break
			}
			if c.recentReverseMove(step, now) {
				c.mOscSkips.Inc()
				continue
			}
			out = append(out, Action{Kind: ActionMigrate, Step: step, Reason: "idle count rebalance"})
		}
	}
	return out
}

// recentReverseMove reports whether executing step would undo a move of
// the same (group, shard) completed within OscillationWindow.
func (c *Controller) recentReverseMove(step gms.MigrationStep, now time.Time) bool {
	for i := len(c.history) - 1; i >= 0; i-- {
		rec := c.history[i]
		if now.Sub(rec.At) > c.cfg.OscillationWindow {
			break
		}
		if rec.Err != nil || rec.Kind == ActionAddNode {
			continue
		}
		if rec.Step.Group == step.Group && rec.Step.Shard == step.Shard &&
			rec.Step.From == step.To && rec.Step.To == step.From {
			return true
		}
	}
	return false
}

// execute runs one action with bounded retry/backoff. A migration that
// still fails after MaxRetries is parked as the inflight step: later
// ticks resume it (idempotently) until MaxResumeTicks, then roll back.
func (c *Controller) execute(a Action, now time.Time) ActionRecord {
	rec := ActionRecord{Action: a, At: now}
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		rec.Attempts = attempt + 1
		err := c.runAction(&rec.Action)
		if err == nil {
			rec.Err = nil
			c.mActions.Inc()
			c.logf("%s %+v ok (attempt %d): %s", rec.Kind, rec.Step, rec.Attempts, rec.Reason)
			return rec
		}
		rec.Err = err
		if errors.Is(err, gms.ErrStalePlacement) {
			// Obsolete plan (failover or competing move won) — drop it and
			// lift any fence it left.
			_ = c.target.Abort(rec.Step)
			c.mFailures.Inc()
			c.logf("%s %+v stale, dropped: %v", rec.Kind, rec.Step, err)
			return rec
		}
		if attempt < c.cfg.MaxRetries {
			c.mRetries.Inc()
			c.clock.Sleep(backoff)
			backoff *= 2
		}
	}
	c.mFailures.Inc()
	if rec.Kind == ActionMigrate || rec.Kind == ActionSplit {
		// Park for idempotent resumption on later ticks.
		c.inflight = &inflightStep{action: rec.Action}
		c.logf("%s %+v failed after %d attempts, parked for resumption: %v",
			rec.Kind, rec.Step, rec.Attempts, rec.Err)
	}
	return rec
}

// runAction dispatches one attempt, degrading unsupported splits into
// migrations (the §VIII mitigation ladder).
func (c *Controller) runAction(a *Action) error {
	switch a.Kind {
	case ActionSplit:
		err := c.target.SplitShard(a.Table, a.Step.Shard)
		if errors.Is(err, ErrUnsupported) {
			a.Kind = ActionMigrate
			a.Reason += " (split unsupported → migrate)"
			return c.target.Migrate(a.Step)
		}
		return err
	case ActionMigrate:
		return c.target.Migrate(a.Step)
	case ActionAddNode:
		name, err := c.target.AddNode()
		if err == nil {
			a.Reason += " → " + name
		}
		return err
	default:
		return fmt.Errorf("autopilot: unknown action kind %q", a.Kind)
	}
}

// resumeInflight retries the parked step once per tick (Migrate is
// idempotent, so a half-applied copy resumes where it got to). After
// MaxResumeTicks it rolls the step back via Abort.
func (c *Controller) resumeInflight(now time.Time) ActionRecord {
	in := c.inflight
	in.ticks++
	rec := ActionRecord{Action: in.action, At: now, Resumed: true, Attempts: 1}
	err := c.runAction(&rec.Action)
	switch {
	case err == nil:
		c.inflight = nil
		c.mActions.Inc()
		c.state = StateVerifying
		c.verifyFrom = now
		c.verifyBy = now.Add(c.cfg.VerifyWindow)
		c.logf("resumed %s %+v ok after %d extra tick(s)", rec.Kind, rec.Step, in.ticks)
	case errors.Is(err, gms.ErrStalePlacement):
		rec.Err = err
		c.inflight = nil
		_ = c.target.Abort(rec.Step)
		c.mFailures.Inc()
		c.state = StateIdle
		c.logf("parked %s %+v stale, dropped: %v", rec.Kind, rec.Step, err)
	case in.ticks >= c.cfg.MaxResumeTicks:
		rec.Err = err
		c.inflight = nil
		c.mRollbacks.Inc()
		if aerr := c.target.Abort(rec.Step); aerr != nil {
			c.logf("rollback of %+v failed: %v", rec.Step, aerr)
		} else {
			c.logf("rolled back %s %+v after %d resume ticks: %v", rec.Kind, rec.Step, in.ticks, err)
		}
		c.state = StateIdle
	default:
		rec.Err = err
		c.mRetries.Inc()
		c.logf("resume of %s %+v still failing (tick %d/%d): %v",
			rec.Kind, rec.Step, in.ticks, c.cfg.MaxResumeTicks, err)
	}
	c.history = append(c.history, rec)
	return rec
}

// Status is a snapshot of the controller for tests and operators.
type Status struct {
	State           State
	Ticks           int64
	Actions         int64
	Noops           int64
	Retries         int64
	Failures        int64
	Rollbacks       int64
	OscSkips        int64
	CooldownSkips   int64
	Converged       int64
	VerifyTimeouts  int64
	LastSkew        map[string]float64
	InflightPending bool
	History         []ActionRecord
}

// Status returns a consistent snapshot.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	skew := make(map[string]float64, len(c.lastSkew))
	for k, v := range c.lastSkew {
		skew[k] = v
	}
	return Status{
		State:           c.state,
		Ticks:           c.mTicks.Value(),
		Actions:         c.mActions.Value(),
		Noops:           c.mNoops.Value(),
		Retries:         c.mRetries.Value(),
		Failures:        c.mFailures.Value(),
		Rollbacks:       c.mRollbacks.Value(),
		OscSkips:        c.mOscSkips.Value(),
		CooldownSkips:   c.mCooldownSkips.Value(),
		Converged:       c.mConverged.Value(),
		VerifyTimeouts:  c.mVerifyTimeouts.Value(),
		LastSkew:        skew,
		InflightPending: c.inflight != nil,
		History:         append([]ActionRecord(nil), c.history...),
	}
}
