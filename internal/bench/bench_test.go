package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/workload/sysbench"
	"repro/internal/workload/tpch"
)

// The tests here run each figure's experiment at miniature scale and
// assert the paper's *shape* claims; cmd/polardbx-bench runs them at
// full simulation scale.

// TestFig7ShapeHLCBeatsTSOOnWrites asserts the mechanism behind Fig. 7's
// gain, counted per committed transaction rather than raced on wall time:
// TSO-SI fetches a start and a commit timestamp from the TSO in DC1, and
// HLC-SI never talks to it, so HLC-SI makes fewer inter-DC round trips.
// cmd/polardbx-bench -exp fig7 still reports the throughput gain.
func TestFig7ShapeHLCBeatsTSOOnWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig7(sysbench.WriteOnly, Fig7Options{
		Concurrencies: []int{8, 16},
		Rows:          800,
		Duration:      400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Print(os.Stderr)
	type point struct {
		oracle core.OracleKind
		conc   int
	}
	interDC := map[point]float64{}
	for _, p := range res.Points {
		if p.Throughput <= 0 {
			t.Fatalf("zero throughput at %+v", p)
		}
		switch p.Oracle {
		case core.OracleTSO:
			if p.TSOMsgsPerTxn < 2 {
				t.Errorf("TSO-SI at %d clients: %.2f TSO messages per txn, want >= 2", p.Concurrency, p.TSOMsgsPerTxn)
			}
		case core.OracleHLC:
			if p.TSOMsgsPerTxn != 0 {
				t.Errorf("HLC-SI at %d clients: %.2f TSO messages per txn, want 0", p.Concurrency, p.TSOMsgsPerTxn)
			}
		}
		interDC[point{p.Oracle, p.Concurrency}] = p.InterDCCallsPerTxn
	}
	for _, c := range []int{8, 16} {
		hlc, tso := interDC[point{core.OracleHLC, c}], interDC[point{core.OracleTSO, c}]
		if hlc >= tso {
			t.Errorf("%d clients: HLC-SI makes %.2f inter-DC calls per txn, TSO-SI %.2f; want strictly fewer", c, hlc, tso)
		}
	}
}

func TestFig8ShapeMigrationBeatsCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig8(Fig8Options{
		Tenants: 8, RowsPerTenant: 3000, Steps: 2,
		LoadDuration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Print(os.Stderr)
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	for _, s := range res.Steps {
		if s.CopyTime < 3*s.MigrationTime {
			t.Fatalf("step %d: copy (%v) should be much slower than migration (%v)",
				s.Step, s.CopyTime, s.MigrationTime)
		}
		if s.ThroughputAfter <= s.ThroughputPrev {
			t.Logf("step %d: throughput did not increase (%.0f -> %.0f) — tolerated at mini scale",
				s.Step, s.ThroughputPrev, s.ThroughputAfter)
		}
	}
}

func TestFig9ShapeIsolationProtectsTPCC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Run only configs 1 and 4 at mini scale: isolation-off vs two
	// dedicated ROs. The claim: dedicated ROs keep tpmC at (or near) its
	// baseline ratio compared to the unisolated config. Single-host runs
	// are noisy, so the margin is generous; cmd/polardbx-bench runs the
	// full six-config experiment.
	opts := Fig9Options{Duration: 2500 * time.Millisecond, Terminals: 4}
	opts = opts.withDefaults()
	noIso, err := runFig9Config(Fig9Configs()[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	withRO, err := runFig9Config(Fig9Configs()[3], opts)
	if err != nil {
		t.Fatal(err)
	}
	(&Fig9Result{Configs: []Fig9ConfigResult{noIso, withRO}}).Print(os.Stderr)
	if noIso.TpmC <= 0 || withRO.TpmC <= 0 {
		t.Fatal("no TPC-C throughput recorded")
	}
	ratioNoIso := noIso.TpmC / noIso.TpmCBase
	ratioRO := withRO.TpmC / withRO.TpmCBase
	if ratioRO < ratioNoIso*0.8 {
		t.Fatalf("dedicated RO config retained %.2f of baseline vs %.2f without isolation",
			ratioRO, ratioNoIso)
	}
}

func TestFig10ShapeColumnIndexWinsOnScanHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig10(Fig10Options{
		TPCH:     tpch.Config{SF: 1.0, Partitions: 8, Seed: 10},
		Reps:     2,
		QueryIDs: []int{1, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Print(os.Stderr)
	for _, row := range res.Rows {
		if row.Serial <= 0 || row.MPP <= 0 || row.ColIndex <= 0 {
			t.Fatalf("missing latency in %+v", row)
		}
		// Q1/Q6 are the paper's largest column-index winners: the
		// column path must at least beat serial row execution.
		if row.ColIndex >= row.Serial {
			t.Fatalf("Q%d: column index (%v) not faster than serial (%v)",
				row.Query.ID, row.ColIndex, row.Serial)
		}
	}
}

// TestSysbenchPlanCacheHitRate: the sysbench read-only loop is the
// workload the fingerprinted plan cache exists for — after one planning
// per (statement shape, CN) everything hits.
func TestSysbenchPlanCacheHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cluster, err := core.NewCluster(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cfg := sysbench.Config{Rows: 400, Partitions: 4, Seed: 11}
	if err := sysbench.Load(cluster.CN(simnet.DC1).NewSession(), cfg); err != nil {
		t.Fatal(err)
	}
	stats := sysbench.Run(cluster, cfg, sysbench.ReadOnly, 4, 400*time.Millisecond)
	if stats.Throughput <= 0 {
		t.Fatal("no sysbench throughput")
	}
	var hits, misses uint64
	for _, cn := range cluster.CNs() {
		h, m := cn.PlanCacheStats()
		hits += h
		misses += m
	}
	if hits+misses == 0 {
		t.Fatal("plan cache never consulted")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("read-only plan-cache hit rate = %.3f (hits=%d misses=%d), want > 0.9",
			rate, hits, misses)
	}
}

// BenchmarkPointReadBatch measures the CN fast path's multi-point read
// (SELECT ... WHERE id IN (...)) on the Fig. 7 cross-DC topology: one
// MultiGet per touched DN. The literals vary every iteration, so the
// runs also exercise plan-cache re-binding under real inter-DC latency.
func BenchmarkPointReadBatch(b *testing.B) {
	topo := simnet.DefaultTopology()
	cluster, err := core.NewCluster(core.Config{
		DCs: 3, CNsPerDC: 2, DNGroups: 3, MultiDC: true, Topology: &topo,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	const rows = 1200
	cfg := sysbench.Config{Rows: rows, Partitions: 6, Seed: 42}
	if err := sysbench.Load(cluster.CN(simnet.DC1).NewSession(), cfg); err != nil {
		b.Fatal(err)
	}
	s := cluster.CN(simnet.DC1).NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		sb.WriteString("SELECT c FROM sbtest WHERE id IN (")
		for k := 0; k < 8; k++ {
			if k > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", (i*131+k*151)%rows)
		}
		sb.WriteByte(')')
		if _, err := s.Execute(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMedianHelper(t *testing.T) {
	if got := medianInt64([]int64{5, 1, 9}); got != 5 {
		t.Fatalf("median = %d", got)
	}
	if got := medianInt64(nil); got != 0 {
		t.Fatalf("median(nil) = %d", got)
	}
}

func TestFig9ConfigsShape(t *testing.T) {
	cfgs := Fig9Configs()
	if len(cfgs) != 6 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if cfgs[0].Isolation || !cfgs[1].Isolation {
		t.Fatal("isolation flags wrong")
	}
	if cfgs[5].APReplicas != 4 {
		t.Fatal("config 6 should use 4 ROs")
	}
}

// Ensure the full experiment surface compiles against core types.
var _ = core.OracleHLC

// TestTPCHPartitionWiseAlignment guards the PARTITION BY alignment in
// the TPC-H DDL: lineitem is partitioned BY (l_orderkey) into the same
// table group as orders, so the workhorse orders⋈lineitem join plans
// partition-wise instead of redistributing.
func TestTPCHPartitionWiseAlignment(t *testing.T) {
	cluster, err := core.NewCluster(core.Config{DNGroups: 2, TPCostThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	s := cluster.CN(simnet.DC1).NewSession()
	for _, ddl := range tpch.DDL(4) {
		if _, err := s.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Execute(`SELECT COUNT(*) FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	if ex := res.Plan.Explain(); !strings.Contains(ex, "partition-wise") {
		t.Fatalf("orders-lineitem join not partition-wise:\n%s", ex)
	}
}

func TestCompressShapeFootprintAndRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunCompress(CompressOptions{
		Rows: 30000, Reps: 2,
		WALDuration: 400 * time.Millisecond,
		FSWriteKB:   512,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Colindex
	if c.Ratio < 2.5 {
		t.Errorf("column-index footprint ratio %.2fx, want >= 2.5x (rows %d, index %d)",
			c.Ratio, c.LogicalBytes, c.EncodedBytes)
	}
	if c.EncodedScans != c.ScansTotal || c.ScansTotal == 0 {
		t.Errorf("%d of %d scans ran on encoded vectors, want all", c.EncodedScans, c.ScansTotal)
	}
	if res.WAL.Ratio <= 1.05 {
		t.Errorf("WAL ship ratio %.2fx, want > 1.05x (%d raw, %d wire)",
			res.WAL.Ratio, res.WAL.BytesRaw, res.WAL.BytesWire)
	}
	if res.PolarFS.Ratio <= 1.5 {
		t.Errorf("polarfs replication ratio %.2fx, want > 1.5x (%d raw, %d wire)",
			res.PolarFS.Ratio, res.PolarFS.BytesRaw, res.PolarFS.BytesWire)
	}
}
