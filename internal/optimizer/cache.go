package optimizer

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/sql"
	"repro/internal/types"
)

// DefaultPlanCacheSize bounds the per-CN plan cache.
const DefaultPlanCacheSize = 512

// planCacheShards spreads the cache over independently locked shards.
// At front-door session counts every statement on the CN takes the
// cache lock twice (lookup + LRU touch); a single mutex here was the
// first contention wall the 10k-session soak surfaced. Shard selection
// hashes the fingerprint, so one hot statement still serializes on its
// shard — but distinct statements no longer contend at all.
const planCacheShards = 16

// PlanCache is the CN's fingerprinted plan cache (the "plan cache"
// box on the paper's CN, Fig. 2): plans are keyed by the statement's
// literal-normalized fingerprint plus the schema epoch, so repeated
// parameterized statements (the sysbench loop) skip the full optimizer
// pipeline — including the catalog walks it performs for shard metadata
// and statistics — and only re-bind parameters + recompute the
// value-dependent routing (shard pruning, GSI choice).
//
// Entries store an immutable plan skeleton. Lookup returns a deep copy
// with fresh parameter literals substituted, so concurrent sessions on
// one CN never share mutable plan state.
//
// A slot is keyed either by a fingerprint or by a statement shape
// (sql.Shape): a shape slot shares its fingerprint slot's skeleton and
// adds the binding from the shape's lifted literals to the skeleton's
// parameters, so a repeated text statement is found from one lexer pass,
// without an AST (LookupShape). Both kinds live in the same shards under
// the same LRU bound and epoch check.
type PlanCache struct {
	shards [planCacheShards]planShard
	seed   maphash.Seed

	hits, misses atomic.Uint64
	// arityEvictions counts slots evicted because a lookup arrived with a
	// different parameter count than the cached skeleton (fingerprint
	// collision across literal arities).
	arityEvictions atomic.Uint64
}

// planShard is one independently locked slice of the cache.
type planShard struct {
	mu   sync.Mutex
	cap  int
	lru  *list.List // front = most recent; values are *cacheSlot
	byFP map[string]*list.Element
}

// cacheSlot is one cached skeleton.
type cacheSlot struct {
	fp    string // the slot's key: a fingerprint or a shape key
	epoch uint64
	plan  *Plan
	// params are the skeleton's literal nodes in fingerprint order;
	// instantiation maps them positionally onto a fresh statement's
	// literals.
	params []*sql.Literal
	// shape, in a slot keyed by a shape, builds those literals from the
	// shape's lifted values.
	shape sql.ShapeBinding
}

// NewPlanCache creates a cache; capacity <= 0 uses the default. The
// capacity is split evenly across shards (rounded up), so the effective
// total may slightly exceed the requested capacity.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	per := (capacity + planCacheShards - 1) / planCacheShards
	if per < 1 {
		per = 1
	}
	pc := &PlanCache{seed: maphash.MakeSeed()}
	for i := range pc.shards {
		pc.shards[i] = planShard{cap: per, lru: list.New(), byFP: make(map[string]*list.Element)}
	}
	return pc
}

// shardFor routes a fingerprint to its shard.
func (pc *PlanCache) shardFor(fp string) *planShard {
	return &pc.shards[maphash.String(pc.seed, fp)%planCacheShards]
}

// Lookup returns a plan instantiated with params, or nil on miss. A hit
// requires the cached epoch to match: any DDL bumps the epoch, so stale
// plans (e.g. referencing a dropped or superseded physical table) are
// evicted on first touch rather than executed. A param-count mismatch —
// two statements sharing a fingerprint but carrying different literal
// counts — likewise evicts the slot: instantiating positionally with the
// wrong arity would bind literals to the wrong plan nodes (or index out
// of range), so the slot must not survive to poison later lookups.
func (pc *PlanCache) Lookup(fp string, epoch uint64, params []*sql.Literal) *Plan {
	sh := pc.shardFor(fp)
	sh.mu.Lock()
	el, ok := sh.byFP[fp]
	if !ok {
		pc.misses.Add(1)
		sh.mu.Unlock()
		return nil
	}
	slot := el.Value.(*cacheSlot)
	if slot.epoch != epoch || len(slot.params) != len(params) {
		if len(slot.params) != len(params) {
			pc.arityEvictions.Add(1)
		}
		sh.lru.Remove(el)
		delete(sh.byFP, fp)
		pc.misses.Add(1)
		sh.mu.Unlock()
		return nil
	}
	sh.lru.MoveToFront(el)
	pc.hits.Add(1)
	sh.mu.Unlock()
	// Instantiate outside the lock: the skeleton is immutable.
	plan, _ := clonePlan(slot.plan, slot.params, params)
	return plan
}

// LookupShape returns the plan bound to a shape key, instantiated with
// the statement's lifted literals, or nil. Like Lookup it drops a slot
// whose epoch is stale; unlike Lookup it counts no miss, because a
// statement whose shape misses goes on to parse and Lookup its
// fingerprint, which counts the miss once.
func (pc *PlanCache) LookupShape(key []byte, epoch uint64, lits []types.Value) *Plan {
	sh := &pc.shards[maphash.Bytes(pc.seed, key)%planCacheShards]
	sh.mu.Lock()
	el, ok := sh.byFP[string(key)]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	slot := el.Value.(*cacheSlot)
	if slot.epoch != epoch || slot.shape.NumLits() != len(lits) {
		sh.lru.Remove(el)
		delete(sh.byFP, slot.fp)
		sh.mu.Unlock()
		return nil
	}
	sh.lru.MoveToFront(el)
	pc.hits.Add(1)
	sh.mu.Unlock()
	plan, _ := clonePlan(slot.plan, slot.params, slot.shape.Literals(lits))
	return plan
}

// BindShape files a shape slot under key for the skeleton cached under
// fp at epoch, with b binding the shape's lifted literals to that
// skeleton's parameters. It does nothing when fp has no current slot
// (evicted, or re-planned at another epoch meanwhile).
func (pc *PlanCache) BindShape(key string, fp string, epoch uint64, b sql.ShapeBinding) {
	src := pc.shardFor(fp)
	src.mu.Lock()
	el, ok := src.byFP[fp]
	var slot cacheSlot
	if ok {
		slot = *el.Value.(*cacheSlot)
	}
	src.mu.Unlock()
	if !ok || slot.epoch != epoch || len(slot.params) != b.NumLits() {
		return
	}
	slot.fp, slot.shape = key, b
	pc.shardFor(key).put(&slot)
}

// Store caches a freshly planned statement. The plan is snapshotted
// (deep-copied) so later mutation of the live plan — executor binding,
// the session's own reuse — cannot corrupt the skeleton.
func (pc *PlanCache) Store(fp string, epoch uint64, plan *Plan, params []*sql.Literal) {
	skeleton, skelParams := clonePlan(plan, params, nil)
	pc.shardFor(fp).put(&cacheSlot{fp: fp, epoch: epoch, plan: skeleton, params: skelParams})
}

// put files slot under its key as the shard's most recent entry,
// replacing any slot with that key and evicting from the LRU tail past
// the shard's capacity.
func (sh *planShard) put(slot *cacheSlot) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byFP[slot.fp]; ok {
		el.Value = slot
		sh.lru.MoveToFront(el)
		return
	}
	sh.byFP[slot.fp] = sh.lru.PushFront(slot)
	for sh.lru.Len() > sh.cap {
		tail := sh.lru.Back()
		sh.lru.Remove(tail)
		delete(sh.byFP, tail.Value.(*cacheSlot).fp)
	}
}

// Stats returns cumulative hit/miss counters.
func (pc *PlanCache) Stats() (hits, misses uint64) {
	return pc.hits.Load(), pc.misses.Load()
}

// ArityEvictions returns how many slots were evicted on a parameter-count
// mismatch.
func (pc *PlanCache) ArityEvictions() uint64 { return pc.arityEvictions.Load() }

// Len returns the number of cached skeletons.
func (pc *PlanCache) Len() int {
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// clonePlan deep-copies a plan, substituting parameter literals. params
// are the source plan's literal nodes in fingerprint order; with, when
// non-nil, supplies the replacement literal for each position (parameter
// re-binding). With with == nil fresh literal nodes are minted carrying
// the same values (used to snapshot a skeleton the cache owns). Returns
// the clone and its parameter nodes in the same order.
func clonePlan(p *Plan, params, with []*sql.Literal) (*Plan, []*sql.Literal) {
	repl := make(map[*sql.Literal]*sql.Literal, len(params))
	out := make([]*sql.Literal, len(params))
	for i, old := range params {
		var lit *sql.Literal
		if with != nil {
			lit = with[i]
		} else {
			cp := *old
			lit = &cp
		}
		repl[old] = lit
		out[i] = lit
	}
	cp := *p
	cp.Root = cloneNode(p.Root, repl)
	return &cp, out
}

// cloneNode deep-copies a plan node tree, substituting literals and
// recomputing value-dependent scan routing for the new parameters.
func cloneNode(n Node, repl map[*sql.Literal]*sql.Literal) Node {
	switch x := n.(type) {
	case *ScanNode:
		s := *x
		s.Filter = sql.CloneExpr(x.Filter, repl)
		s.Shards = append([]int(nil), x.Shards...)
		s.PointLookups = append([][]byte(nil), x.PointLookups...)
		s.Projection = append([]int(nil), x.Projection...)
		s.GSIVals = append([]types.Value(nil), x.GSIVals...)
		if x.PushedAgg != nil {
			pa := &PushedAgg{GroupBy: append([]int(nil), x.PushedAgg.GroupBy...)}
			for _, a := range x.PushedAgg.Aggs {
				a.Arg = sql.CloneExpr(a.Arg, repl)
				pa.Aggs = append(pa.Aggs, a)
			}
			s.PushedAgg = pa
		}
		reprune(&s)
		return &s
	case *JoinNode:
		j := *x
		j.Left = cloneNode(x.Left, repl)
		j.Right = cloneNode(x.Right, repl)
		j.LeftKeys = cloneExprs(x.LeftKeys, repl)
		j.RightKeys = cloneExprs(x.RightKeys, repl)
		j.On = sql.CloneExpr(x.On, repl)
		return &j
	case *AggNode:
		a := *x
		a.Input = cloneNode(x.Input, repl)
		a.GroupBy = cloneExprs(x.GroupBy, repl)
		a.Aggs = append([]AggItem(nil), x.Aggs...)
		for i := range a.Aggs {
			a.Aggs[i].Arg = sql.CloneExpr(a.Aggs[i].Arg, repl)
		}
		a.Names = append([]string(nil), x.Names...)
		return &a
	case *FilterNode:
		return &FilterNode{Input: cloneNode(x.Input, repl), Pred: sql.CloneExpr(x.Pred, repl)}
	case *ProjectNode:
		return &ProjectNode{
			Input: cloneNode(x.Input, repl),
			Exprs: cloneExprs(x.Exprs, repl),
			Names: append([]string(nil), x.Names...),
		}
	case *SortNode:
		s := &SortNode{Input: cloneNode(x.Input, repl)}
		for _, k := range x.Keys {
			s.Keys = append(s.Keys, SortItem{Expr: sql.CloneExpr(k.Expr, repl), Desc: k.Desc})
		}
		return s
	case *LimitNode:
		return &LimitNode{Input: cloneNode(x.Input, repl), N: x.N}
	default:
		return n
	}
}

func cloneExprs(es []sql.Expr, repl map[*sql.Literal]*sql.Literal) []sql.Expr {
	if es == nil {
		return nil
	}
	out := make([]sql.Expr, len(es))
	for i, e := range es {
		out[i] = sql.CloneExpr(e, repl)
	}
	return out
}

// reprune recomputes a cloned scan's value-dependent routing from its
// (re-parameterized) pushed filter: shard pruning, partition pruning and
// GSI choice all depend on literal values, so a cached skeleton's
// choices are stale the moment parameters change (`id IN (1,2)` touches
// different shards than `id IN (3,4)` — and `IN (1,1)` fewer keys than
// `IN (1,2)`). Mirrors PlanSelect step 3. Scans whose routing was never
// value-dependent (full scans) are left untouched.
func reprune(s *ScanNode) {
	if s.GSI == nil && s.PointLookups == nil && s.Shards == nil {
		return
	}
	conds := conjuncts(s.Filter)
	s.GSI, s.GSIVals = nil, nil
	s.PointLookups = nil
	s.Shards = nil
	var o Optimizer
	o.pruneShards(s, conds)
	if len(s.PointLookups) == 0 {
		o.prunePartition(s, conds)
		o.chooseGSI(s, conds)
	}
}
