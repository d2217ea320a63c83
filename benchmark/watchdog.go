package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"
)

// watchdog bounds a workload's wall time: a wedge inside the system under
// test must fail the run, never hang the pipeline.
type watchdog struct {
	mu       sync.Mutex
	workload string
	phase    string
	timer    *time.Timer
}

// exitWedged is the exit code of a run the watchdog killed.
const exitWedged = 3

// startWatchdog arms a watchdog that, after budget, dumps every
// goroutine, names the workload and phase, and exits non-zero.
func startWatchdog(workload string, budget time.Duration) *watchdog {
	w := &watchdog{workload: workload, phase: "start"}
	w.timer = time.AfterFunc(budget, func() {
		w.mu.Lock()
		phase := w.phase
		w.mu.Unlock()
		fmt.Fprintf(os.Stderr, "benchmark: WATCHDOG: workload %q exceeded its %v wall budget in phase %q; goroutines:\n",
			workload, budget, phase)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort: we exit either way
		os.Exit(exitWedged)
	})
	return w
}

// enter records the phase the workload is in.
func (w *watchdog) enter(phase string) {
	w.mu.Lock()
	w.phase = phase
	w.mu.Unlock()
}

func (w *watchdog) stop() { w.timer.Stop() }

// within runs fn and fails if it has not returned after d. The goroutine
// of an overdue fn is abandoned: the caller reports the error and the
// process exits.
func within(d time.Duration, what string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("%s: no result after %v", what, d)
	}
}
