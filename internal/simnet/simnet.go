// Package simnet provides the simulated multi-datacenter network fabric
// that every PolarDB-X component (CN, DN, SN, GMS, TSO) communicates over.
//
// The paper's cross-DC experiments (§VII-A) hinge on where round trips
// happen: HLC-SI piggybacks timestamps on existing 2PC messages while
// TSO-SI pays an extra cross-DC hop per timestamp. simnet injects real
// wall-clock latency per (source DC, destination DC) pair so those
// protocol differences produce the same relative shapes as the paper's
// three-datacenter deployment, without any real network.
//
// All injected time — both legs of every message here, and the redo
// flush, replica apply and service costs that paxos and dn model — is
// waited out through Delay (delay.go): one process-wide deadline queue
// whose waker waits on a high-resolution alarm for the earliest deadline.
// A wait never ends early, and on an idle 2-core Linux host it ends a
// median 10-25 µs after its deadline (up to ~55 µs for a 3 ms wait); the
// runtime timer it replaces rounded every idle wait up to ~1.05 ms, so an
// 80 µs round trip cost ~1.2 ms and now costs ~120 µs.
//
// Endpoints register a handler; callers use Call (synchronous RPC) or
// Send (one-way). Partitions and per-link failure can be injected for
// fault-tolerance tests.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DC identifies a datacenter.
type DC int

// Common datacenter names for three-DC deployments, matching the paper's
// evaluation setup.
const (
	DC1 DC = iota
	DC2
	DC3
)

func (d DC) String() string { return fmt.Sprintf("DC%d", int(d)+1) }

// Errors returned by the fabric.
var (
	ErrUnknownEndpoint = errors.New("simnet: unknown endpoint")
	ErrPartitioned     = errors.New("simnet: network partitioned")
	ErrEndpointDown    = errors.New("simnet: endpoint down")
)

// Handler processes an incoming message and returns a reply. Handlers run
// on the caller's goroutine after the simulated propagation delay; they
// must therefore be non-blocking or internally concurrent, exactly like a
// real RPC server's dispatch loop.
type Handler func(from string, msg any) (any, error)

// Topology describes datacenters and the round-trip time between them.
type Topology struct {
	// IntraDCRTT is the round trip within one datacenter.
	IntraDCRTT time.Duration
	// InterDCRTT is the round trip between two different datacenters.
	InterDCRTT time.Duration
	// Custom, when non-nil, overrides the RTT for specific DC pairs.
	Custom map[[2]DC]time.Duration
}

// DefaultTopology mirrors the paper's evaluation network: ~1 ms RTT
// between datacenters, and a fast (80 µs) intra-DC fabric.
func DefaultTopology() Topology {
	return Topology{
		IntraDCRTT: 80 * time.Microsecond,
		InterDCRTT: time.Millisecond,
	}
}

// ZeroTopology has no injected latency; unit tests use it so protocol
// logic can be exercised at full speed.
func ZeroTopology() Topology { return Topology{} }

// RTT returns the round-trip time between two datacenters.
func (t Topology) RTT(a, b DC) time.Duration {
	if t.Custom != nil {
		if d, ok := t.Custom[[2]DC{a, b}]; ok {
			return d
		}
		if d, ok := t.Custom[[2]DC{b, a}]; ok {
			return d
		}
	}
	if a == b {
		return t.IntraDCRTT
	}
	return t.InterDCRTT
}

// OneWay returns the one-way propagation delay between two datacenters.
func (t Topology) OneWay(a, b DC) time.Duration { return t.RTT(a, b) / 2 }

type endpoint struct {
	dc      DC
	handler Handler
	down    atomic.Bool
	// delivered is the endpoint name's counter in Network.msgs, resolved
	// once at Register so a delivery costs one atomic add.
	delivered *atomic.Int64
}

// Network is the fabric. It is safe for concurrent use.
type Network struct {
	topo Topology

	mu        sync.RWMutex
	endpoints map[string]*endpoint
	// partitioned holds DC pairs that currently cannot communicate.
	partitioned map[[2]DC]bool

	// faults is the installed chaos configuration (nil = clean network);
	// defaultCallTimeout bounds Calls issued without an explicit deadline.
	faultMu            sync.Mutex
	faults             *faultState
	defaultCallTimeout atomic.Int64

	// msgs holds the per-endpoint-name delivery counters. A counter
	// outlives its endpoint, so a node that is unregistered and registered
	// again keeps counting where it left off.
	msgs sync.Map // string -> *atomic.Int64

	// metrics, when installed, records RPC latency by link class plus
	// call/error counts. Held behind an atomic pointer so the hot path
	// pays one load when metrics are off.
	metrics     atomic.Pointer[NetMetrics]
	lateReplies atomic.Int64
}

// NetMetrics holds the fabric's instruments. Any field may be nil (the
// obs instruments are nil-safe).
type NetMetrics struct {
	IntraDC     *obs.Histogram // round-trip latency, same-DC calls
	InterDC     *obs.Histogram // round-trip latency, cross-DC calls
	Calls       *obs.Counter   // completed Call round trips
	Errors      *obs.Counter   // Call round trips returning an error
	LateReplies *obs.Counter   // replies that arrived after the caller's deadline
}

// SetMetrics installs (or, with nil, removes) the fabric's instruments.
func (n *Network) SetMetrics(m *NetMetrics) { n.metrics.Store(m) }

// LateReplies reports replies that arrived after their caller already
// timed out — the in-doubt window 2PC recovery has to cover.
func (n *Network) LateReplies() int64 { return n.lateReplies.Load() }

// New creates a Network with the given topology.
func New(topo Topology) *Network {
	return &Network{
		topo:        topo,
		endpoints:   make(map[string]*endpoint),
		partitioned: make(map[[2]DC]bool),
	}
}

// Register adds an endpoint with the given name in the given DC. It
// panics on duplicate names: endpoint identity bugs should fail loudly in
// a simulator.
func (n *Network) Register(name string, dc DC, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[name]; dup {
		panic("simnet: duplicate endpoint " + name)
	}
	ctr, _ := n.msgs.LoadOrStore(name, new(atomic.Int64))
	n.endpoints[name] = &endpoint{dc: dc, handler: h, delivered: ctr.(*atomic.Int64)}
}

// Unregister removes an endpoint (e.g. a decommissioned node).
func (n *Network) Unregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, name)
}

// SetDown marks an endpoint as crashed (true) or recovered (false).
// Calls to a down endpoint fail with ErrEndpointDown after the
// propagation delay, like a TCP connect timeout.
func (n *Network) SetDown(name string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		ep.down.Store(down)
	}
}

// IsDown reports whether an endpoint is currently marked crashed.
// Unknown endpoints report true (an unregistered node is unreachable).
func (n *Network) IsDown(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.endpoints[name]
	return !ok || ep.down.Load()
}

// Partition severs connectivity between two datacenters in both
// directions. Intra-DC traffic is unaffected.
func (n *Network) Partition(a, b DC) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[[2]DC{a, b}] = true
	n.partitioned[[2]DC{b, a}] = true
}

// Heal removes a partition between two datacenters.
func (n *Network) Heal(a, b DC) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, [2]DC{a, b})
	delete(n.partitioned, [2]DC{b, a})
}

// IsolateDC partitions one datacenter from all others — the "datacenter
// disaster" scenario of §III.
func (n *Network) IsolateDC(dc DC, all []DC) {
	for _, other := range all {
		if other != dc {
			n.Partition(dc, other)
		}
	}
}

// DCOf returns the datacenter an endpoint lives in.
func (n *Network) DCOf(name string) (DC, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[name]
	if !ok {
		return 0, false
	}
	return ep.dc, true
}

// Endpoints returns the names of all registered endpoints.
func (n *Network) Endpoints() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		out = append(out, name)
	}
	return out
}

// lookup resolves source and destination and checks partitions.
func (n *Network) lookup(from, to string) (srcDC DC, dst *endpoint, err error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	src, ok := n.endpoints[from]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s (source)", ErrUnknownEndpoint, from)
	}
	if src.down.Load() {
		// A crashed process neither receives nor sends.
		return src.dc, nil, fmt.Errorf("%w: %s (source)", ErrEndpointDown, from)
	}
	d, ok := n.endpoints[to]
	if !ok {
		return src.dc, nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, to)
	}
	if n.partitioned[[2]DC{src.dc, d.dc}] {
		return src.dc, nil, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, src.dc, d.dc)
	}
	return src.dc, d, nil
}

// Call performs a synchronous RPC from one endpoint to another: it waits
// out the one-way delay, invokes the handler, then waits out the return
// delay. The caller's goroutine blocks for the full round trip, which is
// exactly the cost model the paper's TSO-vs-HLC comparison measures.
//
// When a default call timeout is installed (chaos plans set one), Call is
// bounded by it; otherwise it blocks until the handler returns.
func (n *Network) Call(from, to string, msg any) (any, error) {
	return n.CallTimeout(from, to, msg, time.Duration(n.defaultCallTimeout.Load()))
}

// CallTimeout is Call with an explicit deadline. On expiry the caller
// gets ErrTimeout; the request itself may still be delivered and
// processed — the caller cannot know, which is exactly the in-doubt
// ambiguity 2PC recovery has to handle. d <= 0 means no deadline.
func (n *Network) CallTimeout(from, to string, msg any, d time.Duration) (any, error) {
	if d <= 0 {
		return n.callSync(from, to, msg)
	}
	type res struct {
		reply any
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		r, err := n.callSync(from, to, msg)
		ch <- res{r, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.reply, r.err
	case <-timer.C:
		// The sender goroutine is not leaked: ch is buffered, so it
		// completes and exits whenever callSync returns. Drain it from a
		// watcher so a reply that lands after the deadline is counted —
		// that late-arrival window is the 2PC in-doubt ambiguity.
		go func() {
			if r := <-ch; r.err == nil {
				n.lateReplies.Add(1)
				if m := n.metrics.Load(); m != nil {
					m.LateReplies.Inc()
				}
			}
		}()
		return nil, fmt.Errorf("%w: %s -> %s after %v", ErrTimeout, from, to, d)
	}
}

// callSync is the blocking delivery path, with fault injection applied to
// both legs. A dropped request or reply surfaces as ErrTimeout after the
// propagation delay (fast-fail stand-in for an RPC timeout wait).
func (n *Network) callSync(from, to string, msg any) (reply any, callErr error) {
	srcDC, dst, err := n.lookup(from, to)
	if err != nil {
		if m := n.metrics.Load(); m != nil {
			m.Errors.Inc()
		}
		return nil, err
	}
	if m := n.metrics.Load(); m != nil {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			if srcDC == dst.dc {
				m.IntraDC.Observe(d)
			} else {
				m.InterDC.Observe(d)
			}
			m.Calls.Inc()
			if callErr != nil {
				m.Errors.Inc()
			}
		}()
	}
	oneWay := n.topo.OneWay(srcDC, dst.dc)
	crashed := n.fireCrashHook(from, to, msg)
	leg := n.rollLeg(from, to)
	Delay(oneWay + leg.jitter)
	if leg.drop {
		return nil, fmt.Errorf("%w: %s -> %s (request lost)", ErrTimeout, from, to)
	}
	if dst.isDown() {
		return nil, fmt.Errorf("%w: %s", ErrEndpointDown, to)
	}
	reply, hErr := dst.deliver(from, msg)
	if leg.dup && !dst.isDown() {
		// At-least-once delivery: the handler runs a second time; the
		// duplicate's reply is discarded. Exercises handler idempotency.
		go func() {
			Delay(oneWay)
			if !dst.isDown() {
				_, _ = dst.deliver(from, msg)
			}
		}()
	}
	ret := n.rollLeg(to, from)
	Delay(oneWay + ret.jitter)
	if crashed {
		// The sender died right after the request left: the work may have
		// happened remotely, but this process never learns the outcome.
		return nil, fmt.Errorf("%w: %s (crashed after send)", ErrEndpointDown, from)
	}
	if ret.drop {
		return nil, fmt.Errorf("%w: %s -> %s (reply lost)", ErrTimeout, to, from)
	}
	return reply, hErr
}

// Send delivers a one-way message asynchronously after the propagation
// delay. Errors (unknown endpoint, partition, down) are reported through
// the optional callback; fire-and-forget callers pass nil. Send returns
// immediately — it models a pipelined, non-blocking log stream (§III).
func (n *Network) Send(from, to string, msg any, onErr func(error)) {
	srcDC, dst, err := n.lookup(from, to)
	if err != nil {
		if onErr != nil {
			onErr(err)
		}
		return
	}
	oneWay := n.topo.OneWay(srcDC, dst.dc)
	n.fireCrashHook(from, to, msg)
	leg := n.rollLeg(from, to)
	if leg.drop {
		return // lost in transit; one-way senders never learn
	}
	go func() {
		Delay(oneWay + leg.jitter)
		if dst.isDown() {
			if onErr != nil {
				onErr(fmt.Errorf("%w: %s", ErrEndpointDown, to))
			}
			return
		}
		if _, err := dst.deliver(from, msg); err != nil && onErr != nil {
			onErr(err)
		}
		if leg.dup && !dst.isDown() {
			_, _ = dst.deliver(from, msg)
		}
	}()
}

func (e *endpoint) isDown() bool { return e.down.Load() }

// deliver hands a message that reached the endpoint to its handler.
func (e *endpoint) deliver(from string, msg any) (any, error) {
	e.delivered.Add(1)
	return e.handler(from, msg)
}

// MessageCount returns how many messages were delivered to an endpoint,
// for assertions like "HLC-SI sends zero messages to the TSO". A message
// counts when the endpoint's handler runs on it: a lost request, or one
// to a down, unknown or partitioned endpoint, does not count, and a
// duplicated delivery counts twice. A Send counts when it lands, after
// its propagation delay.
func (n *Network) MessageCount(to string) int64 {
	if ctr, ok := n.msgs.Load(to); ok {
		return ctr.(*atomic.Int64).Load()
	}
	return 0
}

// RTTBetween exposes the topology RTT between the DCs of two endpoints.
func (n *Network) RTTBetween(a, b string) (time.Duration, error) {
	da, ok := n.DCOf(a)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownEndpoint, a)
	}
	db, ok := n.DCOf(b)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownEndpoint, b)
	}
	return n.topo.RTT(da, db), nil
}
