package mt

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/autopilot"
	"repro/internal/gms"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// TransferWithRetry runs Transfer with bounded retry/backoff for
// transient faults (simnet.IsTransient: the move itself is still valid),
// resuming half-applied moves idempotently: if a prior attempt crashed
// after the rebind (step 4) but before the destination opened the
// tenant (step 5), the wrapper finishes the open instead of re-running
// the protocol. Retries and terminal failures are counted on
// the autopilot.migration_retries / autopilot.migration_failures
// counters (SetMetrics).
func (c *Cluster) TransferWithRetry(tenant TenantID, from, to string, tries int, backoff time.Duration) (TransferStats, error) {
	if tries <= 0 {
		tries = 3
	}
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}
	// The shared retry engine drives the ladder: jittered exponential
	// backoff from the caller's base, counting each transient failure on
	// the retry counter exactly as the old hand-rolled loop did.
	pol := retry.Policy{Attempts: tries, Base: backoff, Cap: 8 * backoff, Jitter: 0.5}
	var stats TransferStats
	err := retry.Do(obs.Wall, pol, func(e error) bool {
		if !simnet.IsTransient(e) {
			return false
		}
		c.mRetries.Inc()
		return true
	}, func() error {
		// Idempotency gate: a previous attempt may have gotten the binding
		// flipped already — complete the open and call it done.
		if bound, _, berr := c.BindingOf(tenant); berr == nil && bound == to {
			if cerr := c.completeTransfer(tenant, from, to); cerr == nil {
				stats = TransferStats{Tenant: tenant, From: from, To: to}
				return nil
			}
		}
		var terr error
		stats, terr = c.Transfer(tenant, from, to)
		return terr
	})
	if err == nil {
		return stats, nil
	}
	c.mFailures.Inc()
	if !simnet.IsTransient(err) {
		return stats, err
	}
	return stats, fmt.Errorf("mt: transfer of tenant %d gave up after %d attempts: %w", tenant, tries, err)
}

// completeTransfer finishes a move whose binding already points at the
// destination: open the tenant there, carry the HLC forward, lift the
// pause gate. Safe to call when the move already completed (no-op).
func (c *Cluster) completeTransfer(tenant TenantID, from, to string) error {
	c.mu.Lock()
	src := c.rws[from]
	dst := c.rws[to]
	t, okT := c.tenants[tenant]
	gate, paused := c.paused[tenant]
	if paused {
		delete(c.paused, tenant)
	}
	c.mu.Unlock()
	if dst == nil || !okT {
		return fmt.Errorf("%w: %s", ErrUnknownRW, to)
	}
	dst.mu.Lock()
	dst.open[tenant] = t
	dst.mu.Unlock()
	if src != nil {
		src.mu.Lock()
		delete(src.open, tenant)
		src.mu.Unlock()
		dst.clock.Update(src.clock.Last())
	}
	if paused {
		close(gate)
	}
	return nil
}

// --- autopilot.Target over the MT cluster ---

// tenantGroup is the pseudo table-group name tenant placement reports
// under: shard i of the group is the i-th tenant in sorted-ID order.
const tenantGroup = "tenants"

type mtTarget struct{ c *Cluster }

// ElasticTarget exposes the MT cluster to the autopilot: tenants are the
// "shards", RW nodes the owners, and a migration step is a tenant
// transfer. Tenant IDs map to shard indices in sorted order at each
// call; the mapping is stable while no tenants are created mid-move.
func (c *Cluster) ElasticTarget() autopilot.Target { return mtTarget{c} }

// sortedTenants lists tenant IDs in ascending order.
func (c *Cluster) sortedTenants() []TenantID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantID, 0, len(c.tenants))
	for id := range c.tenants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m mtTarget) Tables() []string { return []string{tenantGroup} }

func (m mtTarget) ShardLoads(string) []int64 {
	ids := m.c.sortedTenants()
	out := make([]int64, len(ids))
	for i, id := range ids {
		if t, err := m.c.Tenant(id); err == nil {
			out[i] = t.Load()
		}
	}
	return out
}

func (m mtTarget) Placement(string) (string, []string, error) {
	ids := m.c.sortedTenants()
	owners := make([]string, len(ids))
	for i, id := range ids {
		rw, _, err := m.c.BindingOf(id)
		if err != nil {
			return "", nil, err
		}
		owners[i] = rw
	}
	return tenantGroup, owners, nil
}

func (m mtTarget) Nodes() []string {
	names := m.c.RWNames()
	sort.Strings(names)
	var live []string
	for _, n := range names {
		if rw, err := m.c.RWNode(n); err == nil && !rw.Dead() {
			live = append(live, n)
		}
	}
	return live
}

func (m mtTarget) Migrate(step gms.MigrationStep) error {
	ids := m.c.sortedTenants()
	if step.Shard < 0 || step.Shard >= len(ids) {
		return fmt.Errorf("%w: tenant index %d of %d", gms.ErrStalePlacement, step.Shard, len(ids))
	}
	id := ids[step.Shard]
	if bound, _, err := m.c.BindingOf(id); err == nil && bound == step.To {
		return nil // already moved (resumed)
	} else if err == nil && bound != step.From {
		return fmt.Errorf("%w: tenant %d on %s, step wants %s→%s",
			gms.ErrStalePlacement, id, bound, step.From, step.To)
	}
	_, err := m.c.TransferWithRetry(id, step.From, step.To, 3, 5*time.Millisecond)
	return err
}

// Abort lifts the pause gate a half-applied transfer may have left.
func (m mtTarget) Abort(step gms.MigrationStep) error {
	ids := m.c.sortedTenants()
	if step.Shard < 0 || step.Shard >= len(ids) {
		return nil
	}
	id := ids[step.Shard]
	m.c.mu.Lock()
	gate, paused := m.c.paused[id]
	if paused {
		delete(m.c.paused, id)
	}
	m.c.mu.Unlock()
	if paused {
		close(gate)
	}
	return nil
}

// SplitShard is meaningless for tenants (a tenant is indivisible).
func (m mtTarget) SplitShard(string, int) error { return autopilot.ErrUnsupported }

// AddNode provisions a fresh empty RW — §V scale-out.
func (m mtTarget) AddNode() (string, error) {
	m.c.mu.Lock()
	m.c.nextAutoRW++
	name := fmt.Sprintf("rw-auto%d", m.c.nextAutoRW)
	m.c.mu.Unlock()
	if _, err := m.c.AddRW(name, simnet.DC1); err != nil {
		return "", err
	}
	return name, nil
}

// PlanRebalance spreads tenant counts evenly across live RWs.
func (m mtTarget) PlanRebalance() []gms.MigrationStep {
	ids := m.c.sortedTenants()
	nodes := m.Nodes()
	if len(nodes) < 2 {
		return nil
	}
	count := make(map[string]int, len(nodes))
	for _, n := range nodes {
		count[n] = 0
	}
	owner := make([]string, len(ids))
	for i, id := range ids {
		rw, _, err := m.c.BindingOf(id)
		if err != nil {
			return nil
		}
		owner[i] = rw
		count[rw]++
	}
	var steps []gms.MigrationStep
	for {
		var maxN, minN string
		for _, n := range nodes {
			if maxN == "" || count[n] > count[maxN] {
				maxN = n
			}
			if minN == "" || count[n] < count[minN] {
				minN = n
			}
		}
		if count[maxN]-count[minN] <= 1 {
			return steps
		}
		for i := len(ids) - 1; i >= 0; i-- {
			if owner[i] == maxN {
				steps = append(steps, gms.MigrationStep{Group: tenantGroup, Shard: i, From: maxN, To: minN})
				owner[i] = minN
				count[maxN]--
				count[minN]++
				break
			}
		}
	}
}
