package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point, made from
// this program. The ladder issues the same operation at successively
// lower rungs, one after the other; Parent names the rung above, so that
// a rung's self time is its duration minus its children's, exactly as if
// the calls had been nested. The program's own Config.Tracing spans are
// deliberately not used: this measure stays independent of them.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a top rung
	Op     int    `json:"op"`     // operation the span belongs to
}

// tracer keeps spans in memory until the pass ends. A nil tracer times
// nothing: that is the untraced arm of the overhead measurement.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times fn as a span and returns the span's index.
func (t *tracer) call(name string, parent, op int, fn func()) int {
	if t == nil {
		fn()
		return -1
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// selfTimes folds spans into per-name self times: each span's duration
// minus the durations of the spans that name it as parent. spans may be a
// tail of the trace, base the index of its first span: parents are
// indexes into the whole trace.
func selfTimes(spans []span, base int) map[string][]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= base {
			child[s.Parent-base] += s.End - s.Start
		}
	}
	out := make(map[string][]int64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[i])
	}
	return out
}

// durations groups span durations by name.
func durations(spans []span) map[string][]int64 {
	out := make(map[string][]int64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfUs   map[string]float64 `json:"self_us_median"`
	Spans    []span             `json:"spans"`
}

// writeTrace stores the spans and their folded self times at
// benchmark/out/trace-<workload>.json.
func writeTrace(workload string, seed int64, spans []span) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	f := traceFile{Workload: workload, Seed: seed, SelfUs: make(map[string]float64), Spans: spans}
	for name, ns := range selfTimes(spans, 0) {
		f.SelfUs[name] = medianUs(ns)
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
