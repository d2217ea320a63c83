package gms

import (
	"fmt"
	"sort"
)

// MigrationStep moves one partition group between DNs. Executing the
// plan is the cluster layer's job (tenant transfer in PolarDB-MT terms);
// GMS only decides what should move where (§II-A "it schedules data
// redistribution according to the load").
type MigrationStep struct {
	Group string
	Shard int
	From  string
	To    string
}

// PlanRebalance computes migration steps that spread partition groups
// evenly across the current DN set (including any newly registered DNs
// that hold nothing yet). The planner is greedy: repeatedly move a shard
// from the most-loaded DN to the least-loaded one until balanced.
// Parallelizable steps (disjoint source/destination pairs) can run
// concurrently, as §V notes.
func (g *GMS) PlanRebalance() []MigrationStep {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.dnOrder) == 0 {
		return nil
	}
	// Count partition groups per DN.
	count := make(map[string]int)
	for _, dn := range g.dnOrder {
		count[dn] = 0
	}
	type slot struct {
		group string
		shard int
	}
	holding := make(map[string][]slot)
	for _, tg := range g.groups {
		for shard, dn := range tg.Placement {
			count[dn]++
			holding[dn] = append(holding[dn], slot{group: tg.Name, shard: shard})
		}
	}
	var steps []MigrationStep
	for {
		// Find max- and min-loaded DNs (deterministic order).
		names := append([]string(nil), g.dnOrder...)
		sort.Strings(names)
		var maxDN, minDN string
		for _, n := range names {
			if maxDN == "" || count[n] > count[maxDN] {
				maxDN = n
			}
			if minDN == "" || count[n] < count[minDN] {
				minDN = n
			}
		}
		if count[maxDN]-count[minDN] <= 1 {
			break
		}
		hs := holding[maxDN]
		// Prefer moving the highest-load shard groups first, approximated
		// by stable order here; load-aware ordering happens in the
		// autopilot's shard planner.
		s := hs[len(hs)-1]
		holding[maxDN] = hs[:len(hs)-1]
		holding[minDN] = append(holding[minDN], s)
		count[maxDN]--
		count[minDN]++
		steps = append(steps, MigrationStep{Group: s.group, Shard: s.shard, From: maxDN, To: minDN})
	}
	return steps
}

// ApplyMigration commits a completed migration step to the placement map.
func (g *GMS) ApplyMigration(step MigrationStep) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	tg, ok := g.groups[step.Group]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownGroup, step.Group)
	}
	if step.Shard < 0 || step.Shard >= len(tg.Placement) {
		return fmt.Errorf("gms: shard %d out of range for group %q", step.Shard, step.Group)
	}
	if tg.Placement[step.Shard] != step.From {
		return fmt.Errorf("%w: group %q shard %d is on %s, not %s",
			ErrStalePlacement, step.Group, step.Shard, tg.Placement[step.Shard], step.From)
	}
	if _, ok := g.dns[step.To]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDN, step.To)
	}
	tg.Placement[step.Shard] = step.To
	return nil
}

// HotShards returns shards whose load exceeds factor times the table
// average — candidates for splitting or isolation (§VIII Anti-Hotspots).
func (g *GMS) HotShards(table string, factor float64) ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	loads, ok := g.shardLoad[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	var total int64
	for _, l := range loads {
		total += l
	}
	if total == 0 {
		return nil, nil
	}
	avg := float64(total) / float64(len(loads))
	var hot []int
	for shard, l := range loads {
		if float64(l) > avg*factor {
			hot = append(hot, shard)
		}
	}
	return hot, nil
}
