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
// Entries store an immutable plan skeleton that owns every one of its
// nodes. A hit copies on write: only the plan nodes and expression
// subtrees that hold a parameter are copied, with fresh parameter
// literals substituted and scan routing recomputed; the rest is shared
// with the skeleton, which nothing writes. So concurrent sessions on one
// CN share no mutable plan state, and a hit costs the same whatever the
// number of keys it routes.
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
	// nparams is the skeleton's parameter count: its parameter literals
	// carry Slot 1..nparams, which instantiation maps positionally onto
	// a fresh statement's literals.
	nparams int
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
	if slot.epoch != epoch || slot.nparams != len(params) {
		if slot.nparams != len(params) {
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
	lits := make([]sql.Literal, len(params))
	for i, p := range params {
		lits[i] = *p
	}
	return clonePlan(slot.plan, lits, false)
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
	return clonePlan(slot.plan, slot.shape.Literals(lits), false)
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
	if !ok || slot.epoch != epoch || slot.nparams != b.NumLits() {
		return
	}
	slot.fp, slot.shape = key, b
	pc.shardFor(key).put(&slot)
}

// Store caches a freshly planned statement. The plan is snapshotted
// (deep-copied) so later mutation of the live plan's statement — a
// prepared statement binds new values into its literals and, when it
// re-plans, re-binds its column references — cannot reach the skeleton.
// params are the statement's parameter literals in fingerprint order:
// each is stamped with its Slot for the copy and unstamped after.
//
// A plan that does not hold every parameter is not stored: the planner
// computes two expressions that print alike once, so of two equal
// literals it may keep one, and a hit whose literals differ there would
// compute both expressions with that one.
func (pc *PlanCache) Store(fp string, epoch uint64, plan *Plan, params []*sql.Literal) {
	for i, p := range params {
		p.Slot = i + 1
	}
	skeleton := clonePlan(plan, nil, true)
	for _, p := range params {
		p.Slot = 0
	}
	if !holdsSlots(skeleton.Root, len(params)) {
		return
	}
	pc.shardFor(fp).put(&cacheSlot{fp: fp, epoch: epoch, plan: skeleton, nparams: len(params)})
}

// holdsSlots reports whether the expressions of the plan under root hold
// a literal of every parameter slot, 1 to n.
func holdsSlots(root Node, n int) bool {
	var small [16]bool // a plan rarely has more parameters: no allocation
	s := slotSet{held: small[:0], missing: n}
	if n <= len(small) {
		s.held = small[:n]
	} else {
		s.held = make([]bool, n)
	}
	s.node(root)
	return s.missing == 0
}

// slotSet records the parameter slots a plan's expressions hold.
type slotSet struct {
	held    []bool
	missing int
}

func (s *slotSet) node(n Node) {
	switch x := n.(type) {
	case *ScanNode:
		s.expr(x.Filter)
	case *JoinNode:
		s.expr(x.On)
		s.exprs(x.LeftKeys)
		s.exprs(x.RightKeys)
		s.node(x.Left)
		s.node(x.Right)
	case *AggNode:
		s.exprs(x.GroupBy)
		for _, it := range x.Aggs {
			s.expr(it.Arg)
		}
		s.node(x.Input)
	case *FilterNode:
		s.expr(x.Pred)
		s.node(x.Input)
	case *ProjectNode:
		s.exprs(x.Exprs)
		s.node(x.Input)
	case *SortNode:
		for _, k := range x.Keys {
			s.expr(k.Expr)
		}
		s.node(x.Input)
	case *LimitNode:
		s.node(x.Input)
	}
}

func (s *slotSet) exprs(es []sql.Expr) {
	for _, e := range es {
		s.expr(e)
	}
}

func (s *slotSet) expr(e sql.Expr) {
	sql.Walk(e, func(x sql.Expr) bool {
		if l, ok := x.(*sql.Literal); ok && l.Slot > 0 && !s.held[l.Slot-1] {
			s.held[l.Slot-1] = true
			s.missing--
		}
		return true
	})
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

// clonePlan copies a plan for the cache: the deep snapshot Store keeps
// (deep set), or a hit's copy-on-write instance of a skeleton with its
// parameters taken from params (see sql.CloneExpr). An instance copies a
// node only when it, or a node below it, holds a parameter: a scan whose
// filter holds one also has its value-dependent routing recomputed.
// Everything else, from column references to projections and names, is
// the skeleton's own.
func clonePlan(p *Plan, params []sql.Literal, deep bool) *Plan {
	root, changed := cloneNode(p.Root, params, deep)
	if !changed {
		return p
	}
	cp := *p
	cp.Root = root
	return &cp
}

// cloneNode is clonePlan over one node tree; changed reports whether the
// result is a new node.
func cloneNode(n Node, params []sql.Literal, deep bool) (out Node, changed bool) {
	switch x := n.(type) {
	case *ScanNode:
		filter, fc := sql.CloneExpr(x.Filter, params, deep)
		if !fc && !deep {
			// Routing is a function of the filter's values alone.
			return x, false
		}
		s := *x
		s.Filter = filter
		if deep {
			s.Shards = append([]int(nil), x.Shards...)
			s.PointLookups = append([][]byte(nil), x.PointLookups...)
			s.Projection = append([]int(nil), x.Projection...)
			s.GSIVals = append([]types.Value(nil), x.GSIVals...)
		} else {
			reprune(&s)
		}
		return &s, true
	case *JoinNode:
		l, lc := cloneNode(x.Left, params, deep)
		r, rc := cloneNode(x.Right, params, deep)
		lk, lkc := sql.CloneExprs(x.LeftKeys, params, deep)
		rk, rkc := sql.CloneExprs(x.RightKeys, params, deep)
		on, oc := sql.CloneExpr(x.On, params, deep)
		if !lc && !rc && !lkc && !rkc && !oc && !deep {
			return x, false
		}
		j := *x
		j.Left, j.Right, j.LeftKeys, j.RightKeys, j.On = l, r, lk, rk, on
		return &j, true
	case *AggNode:
		in, ic := cloneNode(x.Input, params, deep)
		gb, gc := sql.CloneExprs(x.GroupBy, params, deep)
		aggs, ac := x.Aggs, deep
		if deep {
			aggs = append([]AggItem(nil), x.Aggs...)
		}
		for i, it := range x.Aggs {
			arg, c := sql.CloneExpr(it.Arg, params, deep)
			if !c {
				continue
			}
			if !ac {
				aggs, ac = append([]AggItem(nil), x.Aggs...), true
			}
			aggs[i].Arg = arg
		}
		if !ic && !gc && !ac && !deep {
			return x, false
		}
		a := *x
		a.Input, a.GroupBy, a.Aggs = in, gb, aggs
		if deep || gc || ac {
			a.Names = append([]string(nil), x.Names...)
		}
		if !deep {
			// An output named after a copied expression is named after
			// this statement's literals.
			for i, g := range gb {
				if g != x.GroupBy[i] {
					a.Names[i] = sql.Key(g)
				}
			}
			for i, it := range aggs {
				if it.Arg != x.Aggs[i].Arg {
					a.Names[len(gb)+i] = aggName(it)
				}
			}
		}
		return &a, true
	case *FilterNode:
		in, ic := cloneNode(x.Input, params, deep)
		pred, pc := sql.CloneExpr(x.Pred, params, deep)
		if !ic && !pc && !deep {
			return x, false
		}
		return &FilterNode{Input: in, Pred: pred}, true
	case *ProjectNode:
		in, ic := cloneNode(x.Input, params, deep)
		exprs, ec := sql.CloneExprs(x.Exprs, params, deep)
		if !ic && !ec && !deep {
			return x, false
		}
		names := x.Names
		if deep {
			names = append([]string(nil), x.Names...)
		} else {
			names = hitNames(x, in, exprs)
		}
		return &ProjectNode{Input: in, Exprs: exprs, Names: names}, true
	case *SortNode:
		in, ic := cloneNode(x.Input, params, deep)
		keys, kc := x.Keys, deep
		if deep {
			keys = append([]SortItem(nil), x.Keys...)
		}
		for i, k := range x.Keys {
			e, c := sql.CloneExpr(k.Expr, params, deep)
			if !c {
				continue
			}
			if !kc {
				keys, kc = append([]SortItem(nil), x.Keys...), true
			}
			keys[i].Expr = e
		}
		if !ic && !kc && !deep {
			return x, false
		}
		return &SortNode{Input: in, Keys: keys}, true
	case *LimitNode:
		in, ic := cloneNode(x.Input, params, deep)
		if !ic && !deep {
			return x, false
		}
		return &LimitNode{Input: in, N: x.N}, true
	default:
		return n, false
	}
}

// hitNames returns the output names of a hit's copy of projection x,
// which reads in and computes exprs. An item whose expression was copied
// because it holds a parameter is renamed by its key, read over the
// hit's aggregate output names, and a column reference follows its
// aggregate input's renamed column; an item whose planned name is
// neither of those is aliased and keeps it. x.Names is shared unless a
// name changes.
func hitNames(x *ProjectNode, in Node, exprs []sql.Expr) []string {
	var oldCols, newCols []string
	if a := aggInput(in); a != nil {
		if old := aggInput(x.Input); a != old {
			oldCols, newCols = old.Names, a.Names
		}
	}
	names := x.Names
	for i, e := range exprs {
		name := names[i]
		if e != x.Exprs[i] {
			if x.Names[i] == sql.Key(x.Exprs[i]) {
				name = sql.Key(renamed(e, newCols))
			}
		} else if c, ok := e.(*sql.ColumnRef); ok && oldCols != nil && x.Names[i] == oldCols[c.Index] {
			name = newCols[c.Index]
		}
		if name == names[i] {
			continue
		}
		if &names[0] == &x.Names[0] {
			names = append([]string(nil), x.Names...)
		}
		names[i] = name
	}
	return names
}

// renamed returns e with each column reference named after cols, the
// output names of the aggregate it reads; e itself when cols is nil.
func renamed(e sql.Expr, cols []string) sql.Expr {
	if cols == nil {
		return e
	}
	c, _ := sql.CloneExpr(e, nil, true)
	sql.Walk(c, func(n sql.Expr) bool {
		if r, ok := n.(*sql.ColumnRef); ok {
			r.Column = cols[r.Index]
		}
		return true
	})
	return c
}

// aggInput returns the aggregate a projection reads, through a HAVING
// filter, or nil.
func aggInput(n Node) *AggNode {
	if f, ok := n.(*FilterNode); ok {
		n = f.Input
	}
	a, _ := n.(*AggNode)
	return a
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
