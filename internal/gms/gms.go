// Package gms implements the Global Meta Service (paper §II-A): the
// control plane of a PolarDB-X cluster. It owns the catalog (logical
// tables, table groups, global indexes), shard placement, node
// membership for CNs and DNs, load statistics, and background
// rebalancing plans driven by load (anti-hotspot shard migration, §VIII).
//
// In production GMS is itself a 3-AZ PolarDB; here it is an in-process
// service guarded by a mutex — its availability story is PolarDB's own.
package gms

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Errors.
var (
	ErrTableExists   = errors.New("gms: table already exists")
	ErrUnknownTable  = errors.New("gms: unknown table")
	ErrUnknownGroup  = errors.New("gms: unknown table group")
	ErrUnknownDN     = errors.New("gms: unknown DN")
	ErrNoDNs         = errors.New("gms: no DNs registered")
	ErrGroupMismatch = errors.New("gms: table group shard count mismatch")
	ErrUnknownIndex  = errors.New("gms: unknown global index")
	// ErrShardMoving is returned by DNForShard while a shard is fenced for
	// the final phase of an online migration. It is transient and
	// retryable: the fence lasts for one drain + diff-sync round, after
	// which routing resolves to the new placement.
	ErrShardMoving = errors.New("gms: shard is moving")
	// ErrStalePlacement means a migration step's From no longer matches
	// the placement map (a concurrent failover or another migration won).
	// The step should be dropped and re-planned, not retried.
	ErrStalePlacement = errors.New("gms: migration step placement is stale")
)

// DNInfo describes one registered DN group (a PolarDB instance set).
type DNInfo struct {
	Name string
	DC   simnet.DC
	// ROs lists the read-only replicas attached to the DN, in creation
	// order (HTAP routing targets).
	ROs []string
}

// CNInfo describes a registered computation node.
type CNInfo struct {
	Name string
	DC   simnet.DC
}

// TableGroup aligns placement for a set of tables (§II-B): same shard
// count, and shard i of every member lives on the same DN (a partition
// group), enabling partition-wise joins.
type TableGroup struct {
	Name   string
	Shards int
	Tables []string
	// Placement[i] is the DN serving partition group i.
	Placement []string
}

// GMS is the control plane.
//
// Locking: catalog mutations take the write lock; the hot read paths CNs
// hit per statement (DNForShard, Table, RecordLoad) only take the read
// lock, so routing lookups from thousands of concurrent sessions never
// serialize on each other — only against (rare) DDL and migration steps.
type GMS struct {
	mu      sync.RWMutex
	tables  map[string]*partition.Table
	groups  map[string]*TableGroup
	dns     map[string]*DNInfo
	dnOrder []string
	cns     map[string]*CNInfo
	nextID  uint32

	// shardLoad tracks request counts per (table, shard) for the
	// autopilot's skew detection and balance planning. Slices are sized at CreateTable and
	// never resized; entries are bumped atomically under the read lock so
	// per-statement load reporting doesn't contend.
	shardLoad map[string][]int64

	// moving fences (group, shard) pairs whose final migration phase is in
	// flight: DNForShard answers ErrShardMoving so statements back off
	// instead of writing to a source that is about to stop being
	// authoritative.
	moving map[string]map[int]bool

	// schemaEpoch is bumped on every catalog change (CREATE TABLE, index
	// DDL). CN plan caches key entries by epoch, so a bump invalidates
	// every cached plan cluster-wide without enumerating them.
	schemaEpoch atomic.Uint64
}

// SchemaEpoch returns the current catalog version.
func (g *GMS) SchemaEpoch() uint64 { return g.schemaEpoch.Load() }

// BumpSchemaEpoch invalidates all epoch-keyed CN caches (plan cache,
// column-index routing cache). DDL paths outside GMS — e.g. local CREATE
// INDEX, which never touches the catalog — call this directly.
func (g *GMS) BumpSchemaEpoch() { g.schemaEpoch.Add(1) }

// New creates an empty GMS.
func New() *GMS {
	return &GMS{
		tables:    make(map[string]*partition.Table),
		groups:    make(map[string]*TableGroup),
		dns:       make(map[string]*DNInfo),
		cns:       make(map[string]*CNInfo),
		shardLoad: make(map[string][]int64),
		moving:    make(map[string]map[int]bool),
	}
}

// RegisterDN adds a DN group to the cluster.
func (g *GMS) RegisterDN(name string, dc simnet.DC) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.dns[name]; dup {
		return
	}
	g.dns[name] = &DNInfo{Name: name, DC: dc}
	g.dnOrder = append(g.dnOrder, name)
}

// RegisterRO records a read-only replica under a DN.
func (g *GMS) RegisterRO(dnName, roName string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	dn, ok := g.dns[dnName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDN, dnName)
	}
	dn.ROs = append(dn.ROs, roName)
	return nil
}

// ReplaceDN re-points every shard placement from old to new — the
// routing update GMS performs when a DN group's Paxos leadership moves
// (§II-A: GMS tracks node liveness and serves routing metadata to CNs).
// The new DN starts with no read-only replicas; the caller re-registers
// them once they are attached to the new leader.
func (g *GMS) ReplaceDN(old, new string, dc simnet.DC) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.dns[old]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDN, old)
	}
	if old == new {
		return nil
	}
	delete(g.dns, old)
	g.dns[new] = &DNInfo{Name: new, DC: dc}
	for i, n := range g.dnOrder {
		if n == old {
			g.dnOrder[i] = new
		}
	}
	for _, tg := range g.groups {
		for i, p := range tg.Placement {
			if p == old {
				tg.Placement[i] = new
			}
		}
	}
	return nil
}

// RegisterCN adds a computation node.
func (g *GMS) RegisterCN(name string, dc simnet.DC) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cns[name] = &CNInfo{Name: name, DC: dc}
}

// DNs lists registered DN groups in registration order.
func (g *GMS) DNs() []DNInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]DNInfo, 0, len(g.dnOrder))
	for _, n := range g.dnOrder {
		out = append(out, *g.dns[n])
	}
	return out
}

// CNs lists registered CNs.
func (g *GMS) CNs() []CNInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]CNInfo, 0, len(g.cns))
	for _, c := range g.cns {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CNsInDC lists CNs in one datacenter (load-balancer locality).
func (g *GMS) CNsInDC(dc simnet.DC) []CNInfo {
	var out []CNInfo
	for _, c := range g.CNs() {
		if c.DC == dc {
			out = append(out, c)
		}
	}
	return out
}

// CreateTable registers a logical table: shards, owning table group, and
// initial placement. If the group exists, the shard count must match and
// placement is inherited (partition groups stay aligned).
func (g *GMS) CreateTable(name string, schema *types.Schema, shards int, group string) (*partition.Table, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.tables[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if len(g.dnOrder) == 0 {
		return nil, ErrNoDNs
	}
	g.nextID++
	t, err := partition.NewTable(name, g.nextID, schema, shards, group)
	if err != nil {
		return nil, err
	}
	tg, ok := g.groups[t.Group]
	if ok {
		if tg.Shards != shards {
			return nil, fmt.Errorf("%w: group %q has %d shards, table wants %d",
				ErrGroupMismatch, t.Group, tg.Shards, shards)
		}
	} else {
		placement := make([]string, shards)
		for i := 0; i < shards; i++ {
			placement[i] = g.dnOrder[i%len(g.dnOrder)]
		}
		tg = &TableGroup{Name: t.Group, Shards: shards, Placement: placement}
		g.groups[t.Group] = tg
	}
	tg.Tables = append(tg.Tables, name)
	g.tables[name] = t
	g.shardLoad[name] = make([]int64, shards)
	g.schemaEpoch.Add(1)
	return t, nil
}

// AddGlobalIndex registers a global secondary index (its hidden table
// shares the base table's group placement for simplicity; the paper
// partitions it by the indexed columns, which this preserves — only the
// *placement* map is reused).
func (g *GMS) AddGlobalIndex(table, index string, cols []string, clustered bool) (*partition.GlobalIndex, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	g.nextID++
	gi, err := t.AddGlobalIndex(index, g.nextID, cols, clustered)
	if err == nil {
		g.schemaEpoch.Add(1)
	}
	return gi, err
}

// Table resolves a logical table.
func (g *GMS) Table(name string) (*partition.Table, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t, ok := g.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Tables lists all logical tables sorted by name.
func (g *GMS) Tables() []*partition.Table {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*partition.Table, 0, len(g.tables))
	for _, t := range g.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Group resolves a table group.
func (g *GMS) Group(name string) (*TableGroup, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	tg, ok := g.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGroup, name)
	}
	cp := *tg
	cp.Tables = append([]string(nil), tg.Tables...)
	cp.Placement = append([]string(nil), tg.Placement...)
	return &cp, nil
}

// DNForShard returns the DN serving a table's shard.
func (g *GMS) DNForShard(table string, shard int) (string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t, ok := g.tables[table]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	tg := g.groups[t.Group]
	if shard < 0 || shard >= len(tg.Placement) {
		return "", fmt.Errorf("gms: shard %d out of range for %q", shard, table)
	}
	if g.moving[t.Group][shard] {
		return "", fmt.Errorf("%w: group %q shard %d", ErrShardMoving, t.Group, shard)
	}
	return tg.Placement[shard], nil
}

// StartMove fences a (group, shard) pair: until EndMove, DNForShard
// answers ErrShardMoving for it. Idempotent.
func (g *GMS) StartMove(group string, shard int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.moving[group]
	if !ok {
		m = make(map[int]bool)
		g.moving[group] = m
	}
	m[shard] = true
}

// EndMove lifts the fence set by StartMove. Idempotent.
func (g *GMS) EndMove(group string, shard int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.moving[group], shard)
}

// Moving reports whether a (group, shard) pair is fenced.
func (g *GMS) Moving(group string, shard int) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.moving[group][shard]
}

// RecordLoad bumps a shard's load counter (CNs report after routing).
// Called per statement by every CN; the counter bump is atomic under the
// read lock so concurrent reporters never serialize.
func (g *GMS) RecordLoad(table string, shard int, n int64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if l, ok := g.shardLoad[table]; ok && shard >= 0 && shard < len(l) {
		atomic.AddInt64(&l[shard], n)
	}
}

// ShardLoad returns a copy of a table's per-shard load counters.
func (g *GMS) ShardLoad(table string) []int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	l := g.shardLoad[table]
	out := make([]int64, len(l))
	for i := range l {
		out[i] = atomic.LoadInt64(&l[i])
	}
	return out
}
