// Online shard migration and elastic scale-out: the execution layer the
// autopilot drives (paper §V "data redistribution" and §VIII
// anti-hotspot shard migration). A partition group moves between DN
// groups in three phases — online bulk copy, a short fenced drain, a
// diff-sync under the fence — then placement flips atomically in GMS.
// Every phase is idempotent, so a step that crashed half-way can simply
// be re-run: it resumes where it got to, or completes as a no-op if the
// placement already flipped.

package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/autopilot"
	"repro/internal/dn"
	"repro/internal/gms"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
)

// migRetry is the migration control-plane ladder. Every call runs under
// the destination DN's shared circuit breaker and retry budget
// (Cluster.dnRetry), so a migration against a dead DN fails fast after
// the breaker opens instead of grinding a full ladder per table.
var migRetry = retry.Policy{Attempts: 4, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, Jitter: 0.5}

// migratorName is the network endpoint the migration coordinator uses.
const migratorName = "migrator"

// migrationDrain is the pause between fencing a shard and the final
// diff-sync: in-flight statements that already resolved routing finish
// inside it (their writes are then caught by the diff-sync's snapshot).
const migrationDrain = 5 * time.Millisecond

// physTable is one physical shard table involved in a migration.
type physTable struct {
	id     uint32
	schema *types.Schema
}

// groupShardTables lists every physical table that must move with shard
// `shard` of a table group: the shard of each member table plus the
// shards of their global indexes (partition groups stay aligned, §II-B).
func (c *Cluster) groupShardTables(group string, shard int) ([]physTable, error) {
	tg, err := c.GMS.Group(group)
	if err != nil {
		return nil, err
	}
	var out []physTable
	for _, name := range tg.Tables {
		t, err := c.GMS.Table(name)
		if err != nil {
			return nil, err
		}
		out = append(out, physTable{id: t.PhysicalTableID(shard), schema: shardSchema(t.Schema, shard)})
		for _, gi := range t.Indexes {
			out = append(out, physTable{id: gi.PhysicalTableID(shard), schema: shardSchema(gi.Schema, shard)})
		}
	}
	return out, nil
}

// MigrateShard executes one migration step online. The protocol:
//
//  1. idempotency gate — if placement already points at step.To (a
//     previous attempt crashed after the flip), lift any leftover fence
//     and return success; if it points at neither endpoint, the step is
//     stale (wrapped gms.ErrStalePlacement) and must be re-planned;
//  2. create the destination physical tables (ErrTableExists = resumed);
//  3. bulk-copy a snapshot of every physical table through a real
//     distributed transaction while traffic keeps flowing;
//  4. fence the shard (DNForShard answers retryable ErrShardMoving),
//     wait out a short drain;
//  5. diff-sync source→destination under the fence: exact per-key
//     insert/update/delete so the destination converges even if it
//     holds stale rows from an earlier residence;
//  6. flip placement in GMS, bump the plan epoch, lift the fence.
//
// Any error leaves the fence as-is (a fenced shard stays paused, which
// is what makes re-running safe); callers either retry — resuming — or
// roll back via AbortShardMove.
func (c *Cluster) MigrateShard(step gms.MigrationStep) error {
	tg, err := c.GMS.Group(step.Group)
	if err != nil {
		return err
	}
	if step.Shard < 0 || step.Shard >= len(tg.Placement) {
		return fmt.Errorf("core: shard %d out of range for group %q", step.Shard, step.Group)
	}
	switch cur := tg.Placement[step.Shard]; cur {
	case step.To: // crashed after the flip: finish the cleanup
		c.GMS.EndMove(step.Group, step.Shard)
		c.colIdxEpoch.Add(1)
		return nil
	case step.From: // normal path
	default:
		return fmt.Errorf("%w: group %q shard %d is on %s, step wants %s→%s",
			gms.ErrStalePlacement, step.Group, step.Shard, cur, step.From, step.To)
	}
	pts, err := c.groupShardTables(step.Group, step.Shard)
	if err != nil {
		return err
	}
	for _, pt := range pts {
		pt := pt
		if err := c.dnRetry.DoDest(obs.Wall, migRetry, step.To, time.Time{}, simnet.IsTransient, func() error {
			_, err := c.Net.Call(migratorName, step.To,
				dn.CreateTableReq{ID: pt.id, Schema: pt.schema})
			if errors.Is(err, storage.ErrTableExists) {
				return nil
			}
			return err
		}); err != nil {
			return fmt.Errorf("core: create table %d on %s: %w", pt.id, step.To, err)
		}
	}
	// Phase 1: online bulk copy (traffic still flowing to the source).
	if err := c.syncShardTables(step, pts); err != nil {
		return fmt.Errorf("core: bulk copy %s/%d: %w", step.Group, step.Shard, err)
	}
	// Phase 2: fence + drain.
	c.GMS.StartMove(step.Group, step.Shard)
	time.Sleep(migrationDrain)
	// Phase 3: authoritative diff-sync under the fence.
	if err := c.syncShardTables(step, pts); err != nil {
		return fmt.Errorf("core: fenced sync %s/%d: %w", step.Group, step.Shard, err)
	}
	// Phase 4: flip placement, invalidate plans, lift the fence.
	if err := c.GMS.ApplyMigration(step); err != nil {
		return err
	}
	c.colIdxEpoch.Add(1)
	c.GMS.EndMove(step.Group, step.Shard)
	return nil
}

// AbortShardMove rolls back a step that will not be retried: it lifts
// the fence so traffic resumes against the unchanged source placement.
// Rows already copied to the destination are inert (nothing routes to
// them) and are re-synced if the move is ever re-planned.
func (c *Cluster) AbortShardMove(step gms.MigrationStep) error {
	c.GMS.EndMove(step.Group, step.Shard)
	c.colIdxEpoch.Add(1)
	return nil
}

// syncShardTables brings the destination's copy of every physical table
// to the source's current snapshot through one distributed transaction
// per table: scan both sides, then apply the exact per-key difference
// (the engine's insert/update/delete are strict about key existence).
func (c *Cluster) syncShardTables(step gms.MigrationStep, pts []physTable) error {
	for _, pt := range pts {
		// A whole-table sync is idempotent (the diff is recomputed from
		// fresh scans each try, and an in-doubt commit that actually
		// landed just makes the next diff empty), so transient transport
		// faults retry the table under the destination's breaker/budget.
		pt := pt
		if err := c.dnRetry.DoDest(obs.Wall, migRetry, step.To, time.Time{}, simnet.IsTransient, func() error {
			return c.syncOneTable(step, pt)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) syncOneTable(step gms.MigrationStep, pt physTable) error {
	tx, err := c.migrator.Begin()
	if err != nil {
		return err
	}
	srcRows, err := tx.Scan(step.From, dn.ScanReq{Table: pt.id})
	if err != nil {
		_ = tx.Abort()
		return err
	}
	dstRows, err := tx.Scan(step.To, dn.ScanReq{Table: pt.id})
	if err != nil {
		_ = tx.Abort()
		return err
	}
	have := make(map[string]types.Row, len(dstRows))
	for _, r := range dstRows {
		have[string(pt.schema.PKKey(r))] = r
	}
	var writes []dn.WriteItem
	for _, r := range srcRows {
		pk := pt.schema.PKKey(r)
		old, ok := have[string(pk)]
		switch {
		case !ok:
			writes = append(writes, dn.WriteItem{Table: pt.id, Op: dn.OpInsert, Row: r})
		case !bytes.Equal(types.EncodeRow(nil, old), types.EncodeRow(nil, r)):
			writes = append(writes, dn.WriteItem{Table: pt.id, Op: dn.OpUpdate, Row: r})
		}
		delete(have, string(pk))
	}
	for pk := range have { // rows the source no longer has
		writes = append(writes, dn.WriteItem{Table: pt.id, Op: dn.OpDelete, PK: []byte(pk)})
	}
	if len(writes) == 0 {
		_ = tx.Abort() // read-only: nothing to commit
		return nil
	}
	if err := tx.MultiWrite(step.To, writes); err != nil {
		_ = tx.Abort()
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	return nil
}

// AddDNGroup provisions one more (initially empty) DN group at runtime —
// elastic scale-out. Its zero load drags the cluster mean down, which is
// what attracts the next hot-shard migration to it.
func (c *Cluster) AddDNGroup() (string, error) {
	c.mu.Lock()
	g := len(c.dns)
	c.mu.Unlock()
	if err := c.addDNGroup(g); err != nil {
		return "", err
	}
	return fmt.Sprintf("dng%d", g), nil
}

// --- autopilot.Target over the cluster ---

// elasticTarget adapts the cluster to the autopilot's Target interface.
type elasticTarget struct{ c *Cluster }

// ElasticTarget exposes the cluster as an autopilot target (shard
// migration between DN groups).
func (c *Cluster) ElasticTarget() autopilot.Target { return elasticTarget{c} }

func (e elasticTarget) Tables() []string {
	ts := e.c.GMS.Tables()
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return out
}

func (e elasticTarget) ShardLoads(table string) []int64 {
	return e.c.GMS.ShardLoad(table)
}

func (e elasticTarget) Placement(table string) (string, []string, error) {
	t, err := e.c.GMS.Table(table)
	if err != nil {
		return "", nil, err
	}
	tg, err := e.c.GMS.Group(t.Group)
	if err != nil {
		return "", nil, err
	}
	return t.Group, tg.Placement, nil
}

func (e elasticTarget) Nodes() []string {
	dns := e.c.GMS.DNs()
	out := make([]string, 0, len(dns))
	for _, d := range dns {
		out = append(out, d.Name)
	}
	return out
}

func (e elasticTarget) Migrate(step gms.MigrationStep) error { return e.c.MigrateShard(step) }
func (e elasticTarget) Abort(step gms.MigrationStep) error   { return e.c.AbortShardMove(step) }

// SplitShard is unsupported: tables here hash over a fixed shard count,
// so the controller degrades splits to migrations (§VIII ladder).
func (e elasticTarget) SplitShard(string, int) error { return autopilot.ErrUnsupported }

func (e elasticTarget) AddNode() (string, error) { return e.c.AddDNGroup() }

func (e elasticTarget) PlanRebalance() []gms.MigrationStep { return e.c.GMS.PlanRebalance() }
