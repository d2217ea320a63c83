package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/benchmark/gen"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(1000 - i) // 1..1000, unsorted
	}
	sortInt64(xs)
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {1, 1000}, {0.001, 1}, {0.0001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	// Ten samples lie beyond p99 of 1000: the issue's rule for reporting it.
	if beyond := len(xs) - int(percentile(xs, 0.99)); beyond != 10 {
		t.Errorf("%d samples beyond p99, want 10", beyond)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := medianUs([]int64{3000, 1000, 2000}); got != 2 {
		t.Errorf("medianUs = %v", got)
	}
}

func TestSelfTimeFold(t *testing.T) {
	// One operation walked down three rungs, and a sibling under the top.
	spans := []span{
		{Name: "top", Start: 0, End: 100, Parent: -1},
		{Name: "mid", Start: 100, End: 160, Parent: 0},
		{Name: "leaf", Start: 160, End: 170, Parent: 1},
		{Name: "side", Start: 170, End: 185, Parent: 0},
		{Name: "top", Start: 200, End: 240, Parent: -1, Op: 1},
	}
	self := selfTimes(spans, 0)
	want := map[string][]int64{"top": {25, 40}, "mid": {50}, "leaf": {10}, "side": {15}}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: self times %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d]: self %d, want %d", name, i, got[i], w[i])
			}
		}
	}
	// The fold of a tail of the trace: parents stay absolute.
	if tail := selfTimes(spans[1:], 1); tail["mid"][0] != 50 || tail["side"][0] != 15 {
		t.Errorf("fold of spans[1:] = %v", tail)
	}
	if d := durations(spans)["top"]; d[0] != 100 || d[1] != 40 {
		t.Errorf("durations of top = %v", d)
	}

	var tr *tracer // the untraced arm records nothing and still runs the call
	ran := false
	if idx := tr.call("x", -1, 0, func() { ran = true }); idx != -1 || !ran {
		t.Errorf("nil tracer: index %d, ran %v", idx, ran)
	}
	tr = newTracer()
	a := tr.call("a", -1, 7, func() { time.Sleep(time.Millisecond) })
	b := tr.call("b", a, 7, func() {})
	if a != 0 || b != 1 || tr.spans[1].Parent != 0 || tr.spans[0].Op != 7 || tr.spans[0].End-tr.spans[0].Start < int64(time.Millisecond) {
		t.Errorf("recorded spans %+v", tr.spans)
	}
}

func TestLedger(t *testing.T) {
	table := gen.Sbtest{Seed: 9, Rows: 100}
	l := newLedger(table)
	var want int64
	for id := int64(0); id < 100; id++ {
		want += table.K(id)
	}
	if l.sum() != want {
		t.Fatalf("fresh ledger sums to %d, want %d", l.sum(), want)
	}
	g := gen.NewWriteGen(table, 9, 1)
	for i := 0; i < 50; i++ {
		txn := g.Next()
		want += 1 + txn.NewK - l[txn.IDs[2]]
		l.commit(txn)
		if l.sum() != want {
			t.Fatalf("after %d transactions the ledger sums to %d, want %d", i+1, l.sum(), want)
		}
	}
}

func TestCompare(t *testing.T) {
	for _, c := range []struct {
		old, new float64
		better   string
		want     float64
	}{
		{100, 110, "lower", 0.10}, {100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10}, {100, 100, "higher", 0},
		{0, 0, "lower", 0}, {0, 0.01, "lower", math.Inf(1)},
	} {
		if got := worseBy(c.old, c.new, c.better); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.old, c.new, c.better, got, c.want)
		}
	}
	defs := make(map[string]contractMetric)
	for _, def := range endToEnd {
		defs[def.name] = contractMetric{def.name, def.unit, def.better, def.bound}
	}
	base := metrics{"ops_s": {Value: 1000, Unit: "1/s"}, "lat_p50_us": {Value: 10, Unit: "us"}, "fail_frac": {Value: 0, Unit: "frac"}}
	doc := func(m metrics) *document {
		return &document{Commit: "abc", Workloads: map[string]metrics{"oltp_read": m}}
	}
	var out bytes.Buffer
	if n := compareDocs(&out, doc(base), doc(base), defs); n != 0 {
		t.Errorf("a run compared with itself shows %d regressions:\n%s", n, out.String())
	}
	worse := metrics{"ops_s": {Value: 1000 * (1 - defs["ops_s"].Bound - 0.01), Unit: "1/s"},
		"lat_p50_us": {Value: 10 * (1 + defs["lat_p50_us"].Bound/2), Unit: "us"}, "fail_frac": {Value: 0.001, Unit: "frac"}}
	out.Reset()
	if n := compareDocs(&out, doc(base), doc(worse), defs); n != 2 { // ops_s beyond its bound, fail_frac above zero
		t.Errorf("%d regressions, want 2:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no regression marked in:\n%s", out.String())
	}

	// What the first document has and the second lacks is a failure, not
	// a line left out: a metric, or the whole workload.
	out.Reset()
	if n := compareDocs(&out, doc(base), doc(metrics{"ops_s": base["ops_s"]}), defs); n != 2 {
		t.Errorf("%d failures for two missing metrics, want 2:\n%s", n, out.String())
	}
	out.Reset()
	if n := compareDocs(&out, doc(base), &document{Commit: "abc"}, defs); n != len(base) || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("%d failures for a missing workload, want %d:\n%s", n, len(base), out.String())
	}
	// A metric only the second has is new, not a regression.
	if n := compareDocs(&out, doc(metrics{"ops_s": base["ops_s"]}), doc(base), defs); n != 0 {
		t.Errorf("%d failures for a metric the first lacks, want 0", n)
	}

	full := document{Seed: 1, WindowS: 15, Cores: 2, GOMAXPROCS: 2, Workloads: map[string]metrics{"oltp_read": base}}
	if err := comparable(&full, &full); err != nil {
		t.Errorf("a document is not comparable with itself: %v", err)
	}
	for what, change := range map[string]func(*document){
		"seed":       func(d *document) { d.Seed = 2 },
		"window_s":   func(d *document) { d.WindowS = 30 },
		"cores":      func(d *document) { d.Cores = 8 },
		"gomaxprocs": func(d *document) { d.GOMAXPROCS = 4 },
	} {
		other := full
		change(&other)
		if err := comparable(&full, &other); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("documents differing in %s: got %v", what, err)
		}
	}
	if err := comparable(&document{Seed: 1}, &full); err == nil {
		t.Error("a document with no timed pass accepted as the base of a comparison")
	}
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContract holds BENCHMARK.json and this program's tables to each
// other and to the limits the driver sets.
func TestContract(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultWindow {
		t.Errorf("run_seconds = %d, the program's default window is %d", c.RunSeconds, defaultWindow)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] || !nameRule.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		seen := make(map[string]bool)
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !nameRule.MatchString(g.Name) || !unitRule.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s: name %q or unit %q breaks the rules, or the name repeats", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" || g.Bound < 0 || g.Bound > 0.25 {
				t.Errorf("%s: %s has better=%q bound=%v", kind, g.Name, g.Better, g.Bound)
			}
			seen[g.Name] = true
		}
	}
	var gated []metricDef
	for _, def := range endToEnd {
		if def.gated {
			gated = append(gated, def)
		}
	}
	check("end_to_end", c.EndToEnd, gated)
	check("per_layer", c.PerLayer, perLayer)
	if gated[0].name != "setup_s" || gated[0].unit != "s" || gated[0].better != "lower" {
		t.Errorf("setup_s must lead the gated metrics, in seconds, lower better: %+v", gated[0])
	}
	if len(c.PerLayer) > 128 || len(c.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the driver's limits", len(c.PerLayer), len(c.EndToEnd))
	}
}

func smokeParams() params {
	return params{seed: 2, window: time.Second, warmup: 200 * time.Millisecond, clusters: 1, small: true}
}

// TestSmoke runs every workload for one second at reduced size: no
// operation may fail, the correctness gate must pass, and every metric
// must come out under its declared name, positive.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wd := startWatchdog(name, time.Minute)
			defer wd.stop()
			res, err := timedPass(name, smokeParams(), wd)
			if err != nil {
				t.Fatal(err)
			}
			if res.wrong != nil {
				t.Errorf("correctness gate: %v", res.wrong)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			declared := make(map[string]metricDef)
			for _, def := range endToEnd {
				declared[def.name] = def
				v, ok := res.metrics[def.name]
				analytic := strings.HasPrefix(def.name, "ap_")
				switch {
				case analytic && name != "htap_mix":
					if ok {
						t.Errorf("%s reported outside htap_mix", def.name)
					}
				case !ok:
					t.Errorf("%s not reported", def.name)
				case def.name == "fail_frac":
					if v.Value != 0 {
						t.Errorf("fail_frac = %v", v.Value)
					}
				case !(v.Value > 0) || v.Unit != def.unit:
					t.Errorf("%s = %v %s, want a positive number of %s", def.name, v.Value, v.Unit, def.unit)
				}
			}
			for got := range res.metrics {
				if _, ok := declared[got]; !ok || !nameRule.MatchString(got) {
					t.Errorf("metric %q is not declared", got)
				}
			}
			for gotName, m := range driverMetrics(res.metrics, false) {
				if !declared[gotName].gated || m.Value == 0 {
					t.Errorf("driver line carries %s = %v", gotName, m.Value)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced pass of a write workload at reduced
// size: every per-layer metric must be reported, and none twice.
func TestTracedSmoke(t *testing.T) {
	wd := startWatchdog("oltp_write", time.Minute)
	defer wd.stop()
	res, err := tracedPass("oltp_write", smokeParams(), wd)
	if err != nil {
		t.Fatal(err)
	}
	if res.wrong != nil {
		t.Errorf("correctness gate: %v", res.wrong)
	}
	for _, def := range perLayer {
		v, ok := res.metrics[def.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != def.unit {
			t.Errorf("%s = %+v (reported=%v)", def.name, v, ok)
		}
	}
	if len(res.metrics) != len(perLayer) || len(driverMetrics(res.metrics, true)) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(res.metrics), len(perLayer))
	}
}

func TestRunRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"-compare", "only-one.json"}} {
		if code := run(args); code != exitFailed {
			t.Errorf("run(%v) = %d, want %d", args, code, exitFailed)
		}
	}
}
