package simnet

// Message-level fault injection (the chaos fabric).
//
// "The Missing Dimensions in Geo-Distributed Database Evaluation" argues
// that partitions and clean node crashes are not enough: real geo links
// lose, duplicate, and delay messages, and those behaviours dominate
// consensus and commit-protocol tails. This file adds exactly those
// dimensions to the fabric — per-link drop probability, duplication,
// extra jitter — plus one-shot "crash after send" hooks that model a
// process dying at an exact protocol point (e.g. a 2PC coordinator
// crashing right after it ships the commit-point record).
//
// All randomness flows from one seeded source, so a chaos run's fault
// pattern is reproducible for a fixed goroutine interleaving.

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrTimeout is returned when a Call exceeds its deadline, or when fault
// injection lost the request or the reply (the caller cannot tell a lost
// message from a slow peer, exactly like a real RPC timeout).
var ErrTimeout = errors.New("simnet: call timed out")

// IsTransient classifies an error as a fabric fault (timeout, partition,
// peer down): weather that may heal, so the operation is worth retrying.
// Anything else is a handler verdict — retrying it repeats the answer.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrPartitioned) ||
		errors.Is(err, ErrEndpointDown)
}

// LinkFaults describes message-level faults on one directed link. Each
// Call leg (request and reply) and each Send rolls independently.
type LinkFaults struct {
	// Drop is the probability a message is silently lost in transit.
	Drop float64
	// Dup is the probability a delivered message is delivered a second
	// time (the duplicate's reply is discarded) — at-least-once networks.
	Dup float64
	// ExtraJitter adds a uniform random delay in [0, ExtraJitter) to the
	// propagation time of each message.
	ExtraJitter time.Duration
}

func (f LinkFaults) active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.ExtraJitter > 0
}

// FaultPlan scripts chaos for a whole network: a deterministic seed, a
// default fault profile for every link, per-link overrides, and the
// default Call deadline that keeps callers from hanging on lost messages.
type FaultPlan struct {
	// Seed feeds the fault RNG; the same seed replays the same fault
	// pattern for a fixed interleaving.
	Seed int64
	// Default applies to every link without a specific override.
	Default LinkFaults
	// Links overrides faults for specific directed (from, to) pairs. The
	// wildcard "*" matches any endpoint on that side.
	Links map[[2]string]LinkFaults
	// CallTimeout bounds every blocking Call issued without an explicit
	// deadline (0 keeps Calls unbounded). Any chaos plan that drops
	// messages should set it, or callers may block forever.
	CallTimeout time.Duration
}

// faultState is the network's installed fault configuration.
type faultState struct {
	mu    sync.Mutex
	rng   *rand.Rand
	def   LinkFaults
	links map[[2]string]LinkFaults
	// crash holds one-shot crash-after-send hooks per source endpoint.
	crash map[string]func(to string, msg any) bool
}

// ApplyFaultPlan installs a complete fault plan, replacing any previous
// fault configuration (crash hooks included).
func (n *Network) ApplyFaultPlan(p FaultPlan) {
	st := &faultState{
		rng:   rand.New(rand.NewSource(p.Seed)),
		def:   p.Default,
		links: make(map[[2]string]LinkFaults, len(p.Links)),
		crash: make(map[string]func(string, any) bool),
	}
	for k, v := range p.Links {
		st.links[k] = v
	}
	n.faultMu.Lock()
	n.faults = st
	n.faultMu.Unlock()
	n.defaultCallTimeout.Store(int64(p.CallTimeout))
}

// SetLinkFaults sets the fault profile for one directed link. Either side
// may be the wildcard "*". Installs an empty fault state (seed 0) if no
// plan was applied yet.
func (n *Network) SetLinkFaults(from, to string, f LinkFaults) {
	st := n.ensureFaults()
	st.mu.Lock()
	st.links[[2]string{from, to}] = f
	st.mu.Unlock()
}

// SetDefaultLinkFaults sets the profile applied to links without a
// specific override.
func (n *Network) SetDefaultLinkFaults(f LinkFaults) {
	st := n.ensureFaults()
	st.mu.Lock()
	st.def = f
	st.mu.Unlock()
}

// ClearFaults removes all fault injection (link faults, crash hooks, and
// the default call timeout).
func (n *Network) ClearFaults() {
	n.faultMu.Lock()
	n.faults = nil
	n.faultMu.Unlock()
	n.defaultCallTimeout.Store(0)
}

// SetFaultSeed re-seeds the fault RNG (chaos reruns).
func (n *Network) SetFaultSeed(seed int64) {
	st := n.ensureFaults()
	st.mu.Lock()
	st.rng = rand.New(rand.NewSource(seed))
	st.mu.Unlock()
}

// SetDefaultCallTimeout bounds every Call issued without an explicit
// deadline; zero restores unbounded Calls.
func (n *Network) SetDefaultCallTimeout(d time.Duration) {
	n.defaultCallTimeout.Store(int64(d))
}

// CrashAfterSend arms a one-shot hook: the next message from the given
// endpoint for which match returns true is delivered, but the sender is
// marked down immediately after the send — it never sees the reply, and
// everything else it tries to send fails. This models a process crashing
// at an exact protocol point (the classic 2PC coordinator-crash windows).
func (n *Network) CrashAfterSend(from string, match func(to string, msg any) bool) {
	st := n.ensureFaults()
	st.mu.Lock()
	st.crash[from] = match
	st.mu.Unlock()
}

// ensureFaults returns the installed fault state, creating an empty one
// on first use.
func (n *Network) ensureFaults() *faultState {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	if n.faults == nil {
		n.faults = &faultState{
			rng:   rand.New(rand.NewSource(0)),
			links: make(map[[2]string]LinkFaults),
			crash: make(map[string]func(string, any) bool),
		}
	}
	return n.faults
}

// linkFaultsFor resolves the profile for a directed link: exact pair,
// then (from, *), then (*, to), then the default.
func (st *faultState) linkFaultsFor(from, to string) LinkFaults {
	if f, ok := st.links[[2]string{from, to}]; ok {
		return f
	}
	if f, ok := st.links[[2]string{from, "*"}]; ok {
		return f
	}
	if f, ok := st.links[[2]string{"*", to}]; ok {
		return f
	}
	return st.def
}

// legRoll is one leg's fault outcome.
type legRoll struct {
	drop   bool
	dup    bool
	jitter time.Duration
}

// rollLeg rolls the directed link's faults for one message leg.
func (n *Network) rollLeg(from, to string) legRoll {
	n.faultMu.Lock()
	st := n.faults
	n.faultMu.Unlock()
	if st == nil {
		return legRoll{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	f := st.linkFaultsFor(from, to)
	if !f.active() {
		return legRoll{}
	}
	var r legRoll
	if f.Drop > 0 && st.rng.Float64() < f.Drop {
		r.drop = true
	}
	if f.Dup > 0 && st.rng.Float64() < f.Dup {
		r.dup = true
	}
	if f.ExtraJitter > 0 {
		r.jitter = time.Duration(st.rng.Int63n(int64(f.ExtraJitter)))
	}
	return r
}

// fireCrashHook fires a pending crash-after-send hook for the sender, if
// its predicate matches this message. Returns true when the sender was
// crashed (the message itself is still delivered — it already left).
func (n *Network) fireCrashHook(from, to string, msg any) bool {
	n.faultMu.Lock()
	st := n.faults
	n.faultMu.Unlock()
	if st == nil {
		return false
	}
	st.mu.Lock()
	match := st.crash[from]
	if match == nil {
		st.mu.Unlock()
		return false
	}
	fire := match(to, msg)
	if fire {
		delete(st.crash, from) // one-shot
	}
	st.mu.Unlock()
	if fire {
		n.SetDown(from, true)
	}
	return fire
}
