package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// document is the benchmark's full result: what result.json holds and
// what -compare reads.
type document struct {
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	Cores      int                `json:"cores"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	WindowS    float64            `json:"window_s"`
	Topology   map[string]string  `json:"topology"`
	KnownGap   string             `json:"known_gap"`
	Workloads  map[string]metrics `json:"workloads"`
	Layers     map[string]metrics `json:"layers"`
}

// knownGap is stated in every report.
const knownGap = "AP runs on the RW leaders (Fig. 9 config 2 / Fig. 10 MPP row-store arm): RO replicas and live " +
	"column indexes are left out until the RO redo-feed wedge (ROADMAP item 0) is fixed; colindex is measured " +
	"standalone in the layer pass"

func newDocument(p params, cores, procs int) *document {
	d := &document{
		Commit: commit(), Go: runtime.Version(), Cores: cores, GOMAXPROCS: procs,
		Seed: p.seed, WindowS: p.window.Seconds(), KnownGap: knownGap,
		Topology:  make(map[string]string),
		Workloads: make(map[string]metrics), Layers: make(map[string]metrics),
	}
	for _, name := range workloadNames {
		w, _ := newWorkload(name, p) // the names are ours
		sp := w.spec()
		d.Topology[name] = sp.topology + "; " + sp.loop
	}
	return d
}

// commit is the revision the binary was built from, when the build ran
// inside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// print renders the human table: every metric by name with its unit and
// sample count.
func (d *document) print(w io.Writer) {
	fmt.Fprintf(w, "benchmark: commit %s, %s, %d cores, GOMAXPROCS %d, seed %d, window %gs, Config.Tracing/Metrics off\n",
		d.Commit, d.Go, d.Cores, d.GOMAXPROCS, d.Seed, d.WindowS)
	fmt.Fprintf(w, "known gap: %s\n", d.KnownGap)
	for _, name := range workloadNames {
		m, ok := d.Workloads[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s  [%s]\n", name, d.Topology[name])
		for _, def := range endToEnd {
			if v, ok := m[def.name]; ok {
				printMetric(w, def.name, v)
			}
		}
	}
	for _, name := range workloadNames {
		m, ok := d.Layers[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s, per layer (traced pass, single-threaded)\n", name)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			printMetric(w, k, m[k])
		}
	}
	fmt.Fprintln(w)
}

func printMetric(w io.Writer, name string, v metric) {
	n := ""
	if v.N > 0 {
		n = fmt.Sprintf("  (n=%d)", v.N)
	}
	fmt.Fprintf(w, "  %-40s %16.4f %-6s%s\n", name, v.Value, v.Unit, n)
}

// repoRoot is the directory holding BENCHMARK.json: the working directory
// or its parent (go run -C benchmark).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// outDir is benchmark/out, where results and traces are written.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// write stores the document at benchmark/out/result.json.
func (d *document) write() error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}

// contract is the part of BENCHMARK.json this program reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract() (*contract, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// driverMetric is a metric as the driver's one-line result carries it.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics keeps the metrics the driver expects of a pass: the gated
// end-to-end metrics of a timed pass, every per-layer metric of a traced
// one.
func driverMetrics(m metrics, traced bool) map[string]driverMetric {
	out := make(map[string]driverMetric)
	if traced {
		for _, def := range perLayer {
			out[def.name] = driverMetric{m[def.name].Value, def.unit}
		}
		return out
	}
	for _, def := range endToEnd {
		if def.gated {
			out[def.name] = driverMetric{m[def.name].Value, def.unit}
		}
	}
	return out
}

// compareFiles prints, for every workload and end-to-end metric of the
// first result file, the change to the second against the metric's bound,
// and reports failure when a bound is exceeded or the second file lacks
// what the first has. Bounds come from BENCHMARK.json; the metrics it
// cannot list (fail_frac, cpu_us_per_op and the htap_mix-only ap_*) use
// the bounds declared beside them in this program.
func compareFiles(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare wants two result files")
		return exitFailed
	}
	var docs [2]document
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(b, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", f, err)
			return exitFailed
		}
	}
	if err := comparable(&docs[0], &docs[1]); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s and %s cannot be compared: %v\n", files[0], files[1], err)
		return exitFailed
	}
	c, err := readContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailed
	}
	defs := make(map[string]contractMetric)
	for _, def := range endToEnd {
		defs[def.name] = contractMetric{def.name, def.unit, def.better, def.bound}
	}
	for _, def := range c.EndToEnd {
		defs[def.Name] = def
	}
	if bad := compareDocs(os.Stdout, &docs[0], &docs[1], defs); bad > 0 {
		fmt.Printf("%d metric(s) worse than their bound or missing\n", bad)
		return exitFailed
	}
	fmt.Println("every metric within its bound")
	return exitOK
}

// comparable reports why two documents do not measure the same thing: a
// delta between them would say nothing about the code.
func comparable(a, b *document) error {
	if len(a.Workloads) == 0 {
		return fmt.Errorf("the first holds no timed pass")
	}
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seed %d vs %d", a.Seed, b.Seed)
	case a.WindowS != b.WindowS:
		return fmt.Errorf("window_s %g vs %g", a.WindowS, b.WindowS)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Cores != b.Cores:
		return fmt.Errorf("cores %d vs %d", a.Cores, b.Cores)
	}
	return nil
}

// compareDocs returns the number of a's metrics that are worse in b than
// their bound allows, or that b no longer reports.
func compareDocs(w io.Writer, a, b *document, defs map[string]contractMetric) (bad int) {
	fmt.Fprintf(w, "%-11s %-16s %14s %14s %9s %7s\n", "workload", "metric", a.Commit[:min(len(a.Commit), 12)],
		b.Commit[:min(len(b.Commit), 12)], "worse by", "bound")
	for _, name := range workloadNames {
		ma, ok := a.Workloads[name]
		if !ok {
			continue
		}
		mb := b.Workloads[name]
		for _, def := range endToEnd {
			va, ok := ma[def.name]
			if !ok {
				continue
			}
			vb, ok := mb[def.name]
			if !ok {
				fmt.Fprintf(w, "%-11s %-16s %14.4f %14s  MISSING\n", name, def.name, va.Value, "-")
				bad++
				continue
			}
			d := defs[def.name]
			worse, verdict := worseBy(va.Value, vb.Value, d.Better), ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-11s %-16s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, def.name, va.Value, vb.Value,
				100*worse, 100*d.Bound, verdict)
		}
	}
	return bad
}

// worseBy is the share of the old value by which the new one is worse
// (negative when it is better). From an old value of zero any worsening
// is infinite: that is the "any increase" rule of fail_frac.
func worseBy(old, new float64, better string) float64 {
	delta := new - old
	if better == "higher" {
		delta = -delta
	}
	if delta == 0 {
		return 0
	}
	return delta / math.Abs(old) // ±Inf from an old value of zero
}
