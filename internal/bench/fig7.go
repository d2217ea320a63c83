// Package bench implements the paper's evaluation harness (§VII): one
// runner per figure, each reproducing the corresponding experiment on
// the simulated cluster and reporting measured numbers next to the
// paper's. Absolute values differ (the substrate is an in-process
// simulator, not Alibaba Cloud hardware); the assertions of interest are
// the *shapes*: who wins, roughly by how much, and where behaviour
// changes.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/workload/sysbench"
)

// Fig7Point is one (concurrency, oracle) measurement. The per-txn
// counts are the mechanism behind the throughput: messages delivered to
// the TSO and inter-DC Call round trips, per committed transaction.
type Fig7Point struct {
	Oracle      core.OracleKind
	Concurrency int
	Throughput  float64
	Errors      int64

	TSOMsgsPerTxn      float64
	InterDCCallsPerTxn float64
}

// Fig7Result holds the §VII-A cross-DC transaction comparison.
type Fig7Result struct {
	Kind   sysbench.Kind
	Points []Fig7Point
}

// Fig7Options tunes runtime cost.
type Fig7Options struct {
	Concurrencies []int
	Rows          int
	Duration      time.Duration
}

func (o Fig7Options) withDefaults() Fig7Options {
	if len(o.Concurrencies) == 0 {
		o.Concurrencies = []int{4, 8, 16, 32}
	}
	if o.Rows <= 0 {
		o.Rows = 4000
	}
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	return o
}

// RunFig7 reproduces Fig. 7: HLC-SI vs TSO-SI on a three-datacenter
// deployment (two CNs and one DN group leader per DC, 1 ms inter-DC
// RTT, TSO pinned in DC1), sweeping client concurrency for the sysbench
// oltp-write-only or oltp-read-only mix.
func RunFig7(kind sysbench.Kind, opts Fig7Options) (Fig7Result, error) {
	opts = opts.withDefaults()
	result := Fig7Result{Kind: kind}
	for _, oracle := range []core.OracleKind{core.OracleHLC, core.OracleTSO} {
		topo := simnet.DefaultTopology()
		cluster, err := core.NewCluster(core.Config{
			DCs: 3, CNsPerDC: 2, DNGroups: 3, MultiDC: true,
			Oracle: oracle, Topology: &topo,
		})
		if err != nil {
			return result, err
		}
		interDC := obs.NewRegistry().Histogram("rpc.inter_dc")
		cluster.Net.SetMetrics(&simnet.NetMetrics{InterDC: interDC})
		cfg := sysbench.Config{Rows: opts.Rows, Partitions: 6, Seed: 42}
		if err := sysbench.Load(cluster.CN(simnet.DC1).NewSession(), cfg); err != nil {
			cluster.Stop()
			return result, err
		}
		for _, conc := range opts.Concurrencies {
			tso0, calls0 := cluster.Net.MessageCount("tso"), interDC.Count()
			stats := sysbench.Run(cluster, cfg, kind, conc, opts.Duration)
			p := Fig7Point{
				Oracle: oracle, Concurrency: conc,
				Throughput: stats.Throughput, Errors: stats.Errors,
			}
			if stats.Txns > 0 {
				p.TSOMsgsPerTxn = float64(cluster.Net.MessageCount("tso")-tso0) / float64(stats.Txns)
				p.InterDCCallsPerTxn = float64(interDC.Count()-calls0) / float64(stats.Txns)
			}
			result.Points = append(result.Points, p)
		}
		cluster.Stop()
	}
	return result, nil
}

// PeakGain returns HLC's peak throughput advantage over TSO in percent
// (the paper reports +19% for writes).
func (r Fig7Result) PeakGain() float64 {
	peak := map[core.OracleKind]float64{}
	for _, p := range r.Points {
		if p.Throughput > peak[p.Oracle] {
			peak[p.Oracle] = p.Throughput
		}
	}
	if peak[core.OracleTSO] == 0 {
		return 0
	}
	return (peak[core.OracleHLC]/peak[core.OracleTSO] - 1) * 100
}

// Print renders the paper-style series.
func (r Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 7 — %s, 3 DCs, 1ms inter-DC RTT (paper: HLC-SI peak writes +19%% vs TSO-SI)\n", r.Kind)
	fmt.Fprintf(w, "%-10s %12s %14s %8s %10s %14s\n", "oracle", "concurrency", "txn/s", "errors", "tso/txn", "inter-dc/txn")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %12d %14.0f %8d %10.2f %14.2f\n",
			p.Oracle, p.Concurrency, p.Throughput, p.Errors, p.TSOMsgsPerTxn, p.InterDCCallsPerTxn)
	}
	fmt.Fprintf(w, "measured HLC-SI peak gain over TSO-SI: %+.0f%%\n", r.PeakGain())
}
