// Command benchmark is the repository's one standing benchmark: four
// workloads driven through the wire server, twelve end-to-end metrics,
// and an outside-in ladder of per-layer measurements. See README.md.
//
//	go run -C benchmark .                       all workloads, timed and traced passes
//	go run -C benchmark . -workload oltp_read -seed 7 -seconds 15 -trace 0
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// defaultWindow is the measured window in seconds (BENCHMARK.json's
// run_seconds). The issue planned 30 s; the driver's cap on the total
// time of its runs leaves room for 15 s, on all four workloads alike.
const defaultWindow = 15

// Every recorded number was taken with these two; neither is stored in a
// result, so neither is a flag: two documents made with different values
// would look alike to -compare.
const (
	// warmup is the load applied to each cluster, and discarded, before
	// its measured window.
	warmup = 1500 * time.Millisecond
	// clustersPerPass is the number of clusters a timed pass builds; the
	// window is split over them and their medians reported.
	clustersPerPass = 3
)

// Exit codes (exitWedged, the watchdog's, is 3).
const (
	exitOK     = 0
	exitFailed = 1 // could not run, or -compare found a regression
	exitWrong  = 2 // a correctness check failed
)

// maxPinProcs caps GOMAXPROCS, so that a larger host does not change the
// load shape.
const maxPinProcs = 4

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "run one workload and print the driver's one-line result (default: all four, full report)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", defaultWindow, "measured window per workload, seconds")
	trace := fs.String("trace", "", "0/false: timed pass only; 1/true: traced per-layer pass only; unset: both")
	compare := fs.Bool("compare", false, "compare two result files (a.json b.json) against the bounds of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return exitFailed
	}
	if *compare {
		return compareFiles(fs.Args())
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return exitFailed
	}
	var timed, traced bool
	switch *trace {
	case "":
		timed, traced = true, true
	case "0", "false":
		timed = true
	case "1", "true":
		traced = true
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0 or 1\n", *trace)
		return exitFailed
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return exitFailed
	}

	// Two client connections need two cores: on one, the clients and the
	// cluster time-share and every latency doubles as a scheduling delay.
	cores := runtime.NumCPU()
	if cores < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to run on 1 core: the load shape is 2 connections on >= 2 cores")
		return exitFailed
	}
	procs := cores
	if procs > maxPinProcs {
		procs = maxPinProcs
	}
	runtime.GOMAXPROCS(procs)

	p := params{seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup, clusters: clustersPerPass}
	names := workloadNames
	if *workloadFlag != "" {
		if _, err := newWorkload(*workloadFlag, p); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return exitFailed
		}
		names = []string{*workloadFlag}
	}

	doc := newDocument(p, cores, procs)
	code := exitOK
	var last runResult
	if timed {
		for _, name := range names {
			res, err := guarded(name, p.plannedTimed(), func(wd *watchdog) (runResult, error) { return timedPass(name, p, wd) })
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return exitFailed
			}
			if res.wrong != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: CORRECTNESS: %v\n", name, res.wrong)
				code = exitWrong
			}
			doc.Workloads[name] = res.metrics
			last = res
		}
	}
	if traced {
		for _, name := range names {
			res, err := guarded(name, plannedTraced, func(wd *watchdog) (runResult, error) { return tracedPass(name, p, wd) })
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", name, err)
				return exitFailed
			}
			if res.wrong != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (traced): CORRECTNESS: %v\n", name, res.wrong)
				code = exitWrong
			}
			doc.Layers[name] = res.metrics
			last = res
		}
	}

	doc.print(os.Stdout)
	if err := doc.write(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailed
	}
	if *workloadFlag != "" {
		// The driver's contract: one workload, one pass, one line.
		line, err := json.Marshal(struct {
			Correct   bool                    `json:"correct"`
			Attempted int64                   `json:"attempted"`
			Failed    int64                   `json:"failed"`
			Metrics   map[string]driverMetric `json:"metrics"`
		}{code == exitOK, last.attempted, last.failed, driverMetrics(last.metrics, traced)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return exitFailed
		}
		fmt.Printf("%s\n", line)
		return code
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailed
	}
	fmt.Printf("%s\n", line)
	return code
}

// plannedTimed is the wall time a timed pass should take; the watchdog
// allows three times as much.
func (p params) plannedTimed() time.Duration {
	return p.window + time.Duration(p.clusters)*(p.warmup+10*time.Second)
}

// guarded runs one pass under the watchdog.
func guarded(name string, planned time.Duration, pass func(*watchdog) (runResult, error)) (runResult, error) {
	wd := startWatchdog(name, 3*planned)
	defer wd.stop()
	return pass(wd)
}
