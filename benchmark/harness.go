package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/srv"
	"repro/internal/types"
)

// numConns is the load shape of every workload: two client connections
// from one process, matching the two cores of the reference host.
const numConns = 2

// Deadlines of the set-up steps. Generous: they exist so that a wedge
// fails the run instead of hanging it.
const (
	dialDeadline = 10 * time.Second
	loadDeadline = 120 * time.Second
)

// params are the knobs shared by every workload.
type params struct {
	seed   int64
	window time.Duration // measured window
	warmup time.Duration // load applied, and discarded, before the window
	// clusters is the number of clusters a timed pass builds: the window is
	// split evenly over them and every rate and ratio is the median of
	// theirs, setup_s the median of their set-up times.
	clusters int
	small    bool // reduced data sizes, for the smoke tests
}

// spec is the static description of a workload.
type spec struct {
	name     string
	loop     string // closed/open-loop statement
	topology string // deployment and injected delays
	config   core.Config
	// clientDC places connection i; it attaches to the CN of that DC (or,
	// within one DC, to CN i).
	clientDC func(conn int) simnet.DC
}

// workload is one benchmark workload: its cluster, data, clients and
// correctness gate. A value serves one cluster; the traced pass builds
// its own.
type workload interface {
	spec() spec
	// load creates and populates the tables through e's connections.
	load(e *env) error
	// clients returns one client per connection.
	clients(e *env) []client
	// verify checks the final database state against what the clients
	// were acknowledged; failed is the number of operations that failed.
	verify(e *env, failed int64) error
	// stream is the statement stream the traced pass replays.
	stream() stream
}

// client is one connection's load generator.
type client struct {
	// analytic marks htap_mix's AP connection: its operations are
	// reported under the ap_* metrics.
	analytic bool
	// rate, when > 0, paces the client open-loop at that many operations
	// per second, and latency is timed from the instant an operation was
	// due. Zero means closed loop: the next operation is issued when the
	// previous one returns.
	rate float64
	// op runs one operation. An error is a failed operation; a wrong
	// result is reported through env.violate.
	op func() error
}

// env is one built cluster with its front door and client connections.
type env struct {
	w       workload
	cluster *core.Cluster
	server  *srv.Server
	conns   []*srv.Conn
	cns     []*core.CN // cns[i] serves conns[i]

	violations atomic.Int64
	vmu        sync.Mutex
	firstViol  string
}

// violate records a correctness violation (a wrong result, as opposed to
// a failed operation).
func (e *env) violate(format string, args ...any) {
	if e.violations.Add(1) == 1 {
		e.vmu.Lock()
		e.firstViol = fmt.Sprintf(format, args...)
		e.vmu.Unlock()
	}
}

func (e *env) violation() error {
	if n := e.violations.Load(); n > 0 {
		e.vmu.Lock()
		defer e.vmu.Unlock()
		return fmt.Errorf("%d wrong results, first: %s", n, e.firstViol)
	}
	return nil
}

// setUp builds the workload's cluster, opens the connections through the
// wire server and loads the data.
func setUp(w workload) (*env, error) {
	sp := w.spec()
	cfg := sp.config
	if cfg.Tracing || cfg.Metrics {
		return nil, fmt.Errorf("%s: Config.Tracing and Config.Metrics must be off in a measured cluster", sp.name)
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: build cluster: %w", sp.name, err)
	}
	e := &env{w: w, cluster: cluster, server: srv.NewServer(cluster, srv.Options{})}
	e.server.AttachSimnet()
	for i := 0; i < numConns; i++ {
		dc := sp.clientDC(i)
		cn := cluster.CN(dc)
		if cfg.DCs <= 1 {
			cn = cluster.CNs()[i%len(cluster.CNs())]
		}
		var conn *srv.Conn
		err := within(dialDeadline, "dial "+cn.Name(), func() (err error) {
			conn, err = srv.DialSim(cluster.Net, fmt.Sprintf("bench-client-%d", i), dc,
				cn.Name()+srv.SimSuffix, srv.HelloOptions{})
			return err
		})
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		e.conns = append(e.conns, conn)
		e.cns = append(e.cns, cn)
	}
	if err := within(loadDeadline, "load", func() error { return w.load(e) }); err != nil {
		e.stop()
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	return e, nil
}

func (e *env) stop() {
	for _, c := range e.conns {
		_ = c.Close() // the cluster goes away with its connections
	}
	e.cluster.Stop()
}

// query runs one statement on connection i.
func (e *env) query(i int, text string) (*srv.Result, error) {
	res, err := e.conns[i].Query(text)
	if err != nil {
		return nil, fmt.Errorf("%q: %w", abbreviate(text), err)
	}
	return res, nil
}

func abbreviate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// loadStatements runs the statements split over all connections, so that
// loading uses both cores.
func (e *env) loadStatements(stmts []string) error {
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i := range e.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < len(stmts); j += len(e.conns) {
				if _, err := e.query(i, stmts[j]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- measured window ------------------------------------------------------

// recorder holds one client's measurements of one window.
type recorder struct {
	lat    []int64 // latency of each completed operation, ns
	failed int64
}

// newRecorders allocates one recorder per client, with room for capHint
// samples each, ahead of the window so that the allocation is not charged
// to it.
func newRecorders(n, capHint int) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{lat: make([]int64, 0, capHint)}
	}
	return recs
}

// runClients drives every client for d, filling recs, and returns the
// wall time from the first issue to the last completion.
func runClients(clients []client, recs []*recorder, d time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range clients {
		wg.Add(1)
		go func(c client, r *recorder) {
			defer wg.Done()
			if c.rate > 0 {
				runPaced(c, r, start, deadline)
			} else {
				runClosed(c, r, deadline)
			}
		}(clients[i], recs[i])
	}
	wg.Wait()
	return time.Since(start)
}

func runClosed(c client, r *recorder, deadline time.Time) {
	for now := time.Now(); now.Before(deadline); {
		err := c.op()
		end := time.Now()
		if err != nil {
			r.failed++
		} else {
			r.lat = append(r.lat, int64(end.Sub(now)))
		}
		now = end
	}
}

func runPaced(c client, r *recorder, start, deadline time.Time) {
	interval := time.Duration(float64(time.Second) / c.rate)
	for due := start; due.Before(deadline); due = due.Add(interval) {
		time.Sleep(time.Until(due)) // returns at once when the client runs late
		if err := c.op(); err != nil {
			r.failed++
		} else {
			r.lat = append(r.lat, int64(time.Since(due)))
		}
	}
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapAlloc  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		heapAlloc:  ms.HeapAlloc,
	}
}

// since returns the counters accumulated after the snapshot before.
func (u usage) since(before usage) usage {
	return usage{
		cpu:        u.cpu - before.cpu,
		mallocs:    u.mallocs - before.mallocs,
		allocBytes: u.allocBytes - before.allocBytes,
		gcCycles:   u.gcCycles - before.gcCycles,
		gcPause:    u.gcPause - before.gcPause,
	}
}

// liveHeap forces collection and returns the bytes still held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	return readUsage().heapAlloc
}

// scalar runs a statement that returns one row and yields its first
// column.
func (e *env) scalar(text string) (types.Value, error) {
	res, err := e.query(0, text)
	if err != nil {
		return types.Value{}, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) == 0 {
		return types.Value{}, fmt.Errorf("%q returned %d rows, want 1", abbreviate(text), len(res.Rows))
	}
	return res.Rows[0][0], nil
}
