package autopilot

import (
	"fmt"
	"sort"

	"repro/internal/gms"
)

// GroupObs is one table group's window observation: per-shard load over
// the last tick and the current placement.
type GroupObs struct {
	Group     string
	Table     string // representative member table
	Placement []string
	Window    []int64
}

// skewOf folds per-shard window loads onto their owner nodes and returns
// max/mean over ALL nodes (empty nodes count: a freshly added node pulls
// the mean down, which is exactly what attracts load to it). A zero-load
// window has skew 0.
func skewOf(window []int64, placement []string, nodes []string) (float64, map[string]int64) {
	perNode := make(map[string]int64, len(nodes))
	for _, n := range nodes {
		perNode[n] = 0
	}
	var tot int64
	for i, l := range window {
		if i < len(placement) {
			perNode[placement[i]] += l
			tot += l
		}
	}
	if tot == 0 || len(perNode) == 0 {
		return 0, perNode
	}
	var max int64
	for _, l := range perNode {
		if l > max {
			max = l
		}
	}
	mean := float64(tot) / float64(len(perNode))
	return float64(max) / mean, perNode
}

// shardAction is a planned mitigation for a skewed shard.
type shardAction struct {
	Shard int
	Load  int64
	// Split recommends re-sharding by another hash function; false means
	// migrate the shard to a less-loaded DN instead.
	Split bool
}

// String renders a shardAction.
func (a shardAction) String() string {
	if a.Split {
		return fmt.Sprintf("split shard %d (load %d) by a secondary hash", a.Shard, a.Load)
	}
	return fmt.Sprintf("migrate shard %d (load %d) to a less-loaded DN", a.Shard, a.Load)
}

// planShards inspects per-shard window loads and returns actions for
// shards loaded beyond factor× the *median* (robust to the outliers being
// hunted), hottest first: moderate outliers migrate, extreme outliers
// split (§VIII: "when a shard grows larger due to data skew, we will
// split the shard according to another hash function").
func planShards(loads []int64, factor float64) []shardAction {
	if len(loads) == 0 {
		return nil
	}
	sorted := append([]int64(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := float64(sorted[len(sorted)/2]+sorted[(len(sorted)-1)/2]) / 2
	if median == 0 {
		return nil
	}
	var out []shardAction
	for shard, l := range loads {
		if float64(l) <= median*factor {
			continue
		}
		out = append(out, shardAction{
			Shard: shard,
			Load:  l,
			Split: float64(l) > median*factor*2,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Load > out[j].Load })
	return out
}

// ChooseMove picks the action for a skewed group: planShards
// nominates the shard (split for extreme outliers, migrate otherwise) and
// the least-loaded node (ties: fewest shards, then name) is the
// destination. ok is false when no sensible move exists (e.g. the hot
// shard already sits on the coolest node).
func ChooseMove(g GroupObs, nodes []string, hotFactor float64) (Action, bool) {
	planned := planShards(g.Window, hotFactor)
	var shard int
	var split bool
	if len(planned) > 0 {
		shard, split = planned[0].Shard, planned[0].Split
	} else {
		// Skewed but no single shard beyond factor×median (e.g. two warm
		// shards co-located): move the hottest one.
		shard = -1
		var best int64 = -1
		for i, l := range g.Window {
			if l > best {
				best, shard = l, i
			}
		}
		if shard < 0 {
			return Action{}, false
		}
	}
	if shard >= len(g.Placement) {
		return Action{}, false
	}
	src := g.Placement[shard]
	_, perNode := skewOf(g.Window, g.Placement, nodes)
	shardsOn := make(map[string]int, len(nodes))
	for _, owner := range g.Placement {
		shardsOn[owner]++
	}
	dest := ""
	for _, n := range nodes {
		if n == src {
			continue
		}
		if dest == "" ||
			perNode[n] < perNode[dest] ||
			(perNode[n] == perNode[dest] && shardsOn[n] < shardsOn[dest]) ||
			(perNode[n] == perNode[dest] && shardsOn[n] == shardsOn[dest] && n < dest) {
			dest = n
		}
	}
	if dest == "" {
		return Action{}, false
	}
	kind := ActionMigrate
	if split {
		kind = ActionSplit
	}
	return Action{
		Kind:  kind,
		Table: g.Table,
		Step:  gms.MigrationStep{Group: g.Group, Shard: shard, From: src, To: dest},
		Reason: fmt.Sprintf("shard %d load %d on %s (group window %d) → %s",
			shard, g.Window[shard], src, total(g.Window), dest),
	}, true
}

func total(w []int64) int64 {
	var t int64
	for _, l := range w {
		t += l
	}
	return t
}

func sortSlice[T any](s []T, less func(i, j int) bool) {
	sort.SliceStable(s, less)
}
