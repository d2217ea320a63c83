package mt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Transient faults mid-transfer are retried with backoff and counted on
// the autopilot.migration_retries counter; the move still lands.
func TestTransferWithRetryTransient(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	tableID := seedTenant(t, c, 7, "rw1", 5)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)

	fails := 0
	c.SetTransferFault(func(stage string) error {
		if stage == "flush" && fails < 2 {
			fails++
			return simnet.ErrTimeout
		}
		return nil
	})
	if _, err := c.TransferWithRetry(7, "rw1", "rw2", 5, 100*time.Microsecond); err != nil {
		t.Fatalf("transfer did not survive transient faults: %v", err)
	}
	if got := reg.Counter("autopilot.migration_retries").Value(); got != 2 {
		t.Fatalf("migration_retries = %d, want 2", got)
	}
	if got := reg.Counter("autopilot.migration_failures").Value(); got != 0 {
		t.Fatalf("migration_failures = %d, want 0", got)
	}
	// The tenant is fully usable on the destination.
	rw2, _ := c.RWNode("rw2")
	tx, err := rw2.Begin(7)
	if err != nil {
		t.Fatalf("Begin on destination: %v", err)
	}
	if _, ok, err := tx.Get(tableID, pkOf(3)); err != nil || !ok {
		t.Fatalf("row lost in transfer: ok=%v err=%v", ok, err)
	}
	tx.Abort()
}

// A fault in the "open" phase leaves the move half-applied: the binding
// already points at the destination but the tenant is not opened there.
// The retry wrapper must complete the open idempotently instead of
// re-running (and failing) the full protocol.
func TestTransferWithRetryResumesHalfApplied(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	tableID := seedTenant(t, c, 9, "rw1", 5)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)

	failed := false
	c.SetTransferFault(func(stage string) error {
		if stage == "open" && !failed {
			failed = true
			return simnet.ErrEndpointDown
		}
		return nil
	})
	if _, err := c.TransferWithRetry(9, "rw1", "rw2", 5, 100*time.Microsecond); err != nil {
		t.Fatalf("half-applied move not resumed: %v", err)
	}
	if bound, _, _ := c.BindingOf(9); bound != "rw2" {
		t.Fatalf("bound to %s, want rw2", bound)
	}
	if got := reg.Counter("autopilot.migration_retries").Value(); got != 1 {
		t.Fatalf("migration_retries = %d, want 1", got)
	}
	rw2, _ := c.RWNode("rw2")
	tx, err := rw2.Begin(9)
	if err != nil {
		t.Fatalf("tenant not opened on destination after resume: %v", err)
	}
	if _, ok, err := tx.Get(tableID, pkOf(0)); err != nil || !ok {
		t.Fatalf("row lost across resume: ok=%v err=%v", ok, err)
	}
	tx.Abort()
}

// Non-transient errors fail immediately (no retry storm) and count as a
// migration failure; the binding stays put.
func TestTransferWithRetryNonTransient(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	seedTenant(t, c, 11, "rw1", 2)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)

	boom := errors.New("disk on fire")
	c.SetTransferFault(func(stage string) error {
		if stage == "flush" {
			return boom
		}
		return nil
	})
	_, err := c.TransferWithRetry(11, "rw1", "rw2", 5, 100*time.Microsecond)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the underlying fault", err)
	}
	if got := reg.Counter("autopilot.migration_retries").Value(); got != 0 {
		t.Fatalf("migration_retries = %d, want 0 for a non-transient fault", got)
	}
	if got := reg.Counter("autopilot.migration_failures").Value(); got != 1 {
		t.Fatalf("migration_failures = %d, want 1", got)
	}
	if bound, _, _ := c.BindingOf(11); bound != "rw1" {
		t.Fatalf("bound to %s, want rw1 after a failed move", bound)
	}
}

// The mt cluster's autopilot adapter: tenants act as shards of a pseudo
// group, and a Migrate step is a tenant transfer.
func TestMTElasticTarget(t *testing.T) {
	c := newMT(t, "rw1", "rw2")
	seedTenant(t, c, 1, "rw1", 2)
	seedTenant(t, c, 2, "rw1", 2)
	tgt := c.ElasticTarget()

	group, owners, err := tgt.Placement(tenantGroup)
	if err != nil || group != tenantGroup {
		t.Fatalf("placement: %s %v", group, err)
	}
	if len(owners) != 2 || owners[0] != "rw1" || owners[1] != "rw1" {
		t.Fatalf("owners = %v", owners)
	}
	// Count-based plan spreads the two tenants over both RWs.
	steps := tgt.PlanRebalance()
	if len(steps) != 1 || steps[0].To != "rw2" {
		t.Fatalf("plan = %+v", steps)
	}
	if err := tgt.Migrate(steps[0]); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// Re-running the same step is a no-op (idempotent resume).
	if err := tgt.Migrate(steps[0]); err != nil {
		t.Fatalf("re-migrate: %v", err)
	}
	if more := tgt.PlanRebalance(); len(more) != 0 {
		t.Fatalf("second plan = %+v, want empty", more)
	}
}
