package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/htap"
	"repro/internal/simnet"
	"repro/internal/workload/tpch"
)

// Fig10Row is one query's latencies across the three engine
// configurations.
type Fig10Row struct {
	Query    tpch.Query
	Serial   time.Duration // single CN, no MPP, row store
	MPP      time.Duration // 4 CNs, MPP fragments, row store
	ColIndex time.Duration // MPP + in-memory column index on the AP ROs
}

// SpeedupMPP returns the Fig. 10 "MPP improvement" percentage.
func (r Fig10Row) SpeedupMPP() float64 {
	if r.MPP <= 0 {
		return 0
	}
	return (float64(r.Serial)/float64(r.MPP) - 1) * 100
}

// SpeedupCol returns the column-index improvement over serial.
func (r Fig10Row) SpeedupCol() float64 {
	if r.ColIndex <= 0 {
		return 0
	}
	return (float64(r.Serial)/float64(r.ColIndex) - 1) * 100
}

// Fig10Result is the §VII-C MPP/column-index experiment.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10Options tunes scale.
type Fig10Options struct {
	TPCH tpch.Config
	// Repetitions per query per configuration (median reported).
	Reps int
	// QueryIDs restricts the sweep (default: all 22).
	QueryIDs []int
	// DNServiceRate is the per-node compute capacity (work tokens/s);
	// it is what makes columnar execution's lower per-row cost visible
	// as latency.
	DNServiceRate float64
}

func (o Fig10Options) withDefaults() Fig10Options {
	if o.TPCH.SF == 0 {
		o.TPCH = tpch.Config{SF: 1.0, Partitions: 8, Seed: 10}
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.QueryIDs) == 0 {
		for _, q := range tpch.Queries() {
			o.QueryIDs = append(o.QueryIDs, q.ID)
		}
	}
	if o.DNServiceRate <= 0 {
		o.DNServiceRate = 30000 // rows/s/core, 8 cores per node
	}
	return o
}

// RunFig10 reproduces Fig. 10: per-TPC-H-query latency under (a) a
// single-CN serial engine, (b) the four-CN MPP engine, and (c) MPP plus
// the in-memory column index, all on identically loaded clusters.
func RunFig10(opts Fig10Options) (Fig10Result, error) {
	opts = opts.withDefaults()
	var result Fig10Result

	type engine struct {
		name     string
		cfg      core.Config
		colIndex bool
	}
	engines := []engine{
		// Pre-MPP execution is single-threaded per query: one CN, one AP
		// executor worker.
		{name: "serial", cfg: core.Config{CNsPerDC: 1, DNGroups: 4, ROsPerDN: 1,
			MPPOff: true, TPCostThreshold: 1, DNServiceRate: opts.DNServiceRate,
			SchedulerCfg: htap.Config{APWorkers: 1, SlowWorkers: 1},
		}},
		{name: "mpp", cfg: core.Config{CNsPerDC: 4, DNGroups: 4, ROsPerDN: 1,
			TPCostThreshold: 1, DNServiceRate: opts.DNServiceRate,
		}},
		{name: "colindex", cfg: core.Config{CNsPerDC: 4, DNGroups: 4, ROsPerDN: 1,
			TPCostThreshold: 1, DNServiceRate: opts.DNServiceRate,
		}, colIndex: true},
	}

	latencies := make(map[string]map[int]time.Duration)
	for _, eng := range engines {
		latencies[eng.name] = make(map[int]time.Duration)
		cluster, err := core.NewCluster(eng.cfg)
		if err != nil {
			return result, err
		}
		s := cluster.CN(simnet.DC1).NewSession()
		if err := tpch.Load(s, opts.TPCH); err != nil {
			cluster.Stop()
			return result, err
		}
		if err := cluster.EnableAPReplicas(1); err != nil {
			cluster.Stop()
			return result, err
		}
		if err := cluster.WaitROConvergence(30 * time.Second); err != nil {
			cluster.Stop()
			return result, err
		}
		if eng.colIndex {
			for _, tbl := range []string{"lineitem", "orders", "partsupp", "part", "customer", "supplier"} {
				if err := cluster.EnableColumnIndexes(tbl); err != nil {
					cluster.Stop()
					return result, err
				}
			}
		}
		for _, id := range opts.QueryIDs {
			q, ok := tpch.QueryByID(id)
			if !ok {
				continue
			}
			best := time.Duration(0)
			for rep := 0; rep < opts.Reps; rep++ {
				start := time.Now()
				if _, err := s.Execute(q.SQL); err != nil {
					cluster.Stop()
					return result, fmt.Errorf("%s Q%d: %w", eng.name, id, err)
				}
				el := time.Since(start)
				if best == 0 || el < best {
					best = el
				}
			}
			latencies[eng.name][id] = best
		}
		cluster.Stop()
	}

	for _, id := range opts.QueryIDs {
		q, _ := tpch.QueryByID(id)
		result.Rows = append(result.Rows, Fig10Row{
			Query:    q,
			Serial:   latencies["serial"][id],
			MPP:      latencies["mpp"][id],
			ColIndex: latencies["colindex"][id],
		})
	}
	return result, nil
}

// Print renders the paper-style per-query table.
func (r Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 10 — TPC-H per-query latency (paper: MPP >100%% on 21/22, Q9 +263%%; column index Q1 +748%%, Q6 +1828%%, Q12 +556%%, Q14 +547%%)\n")
	fmt.Fprintf(w, "%-4s %-30s %10s %10s %10s %10s %10s\n",
		"Q", "name", "serial", "mpp", "colindex", "mpp-gain", "col-gain")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "Q%-3d %-30s %10s %10s %10s %+9.0f%% %+9.0f%%\n",
			row.Query.ID, row.Query.Name,
			row.Serial.Round(time.Microsecond), row.MPP.Round(time.Microsecond),
			row.ColIndex.Round(time.Microsecond),
			row.SpeedupMPP(), row.SpeedupCol())
	}
}
