package paxos

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// This file holds the commit-pipeline machinery introduced on top of the
// seed protocol: the group-commit flusher (one redo flush per
// accumulation window instead of one per MTR), the per-peer shipping
// window bookkeeping for pipeline depth > 1, the incremental DLSN
// tracker, the LSN-ordered waiter heap, and the lease-read fast path.

// lsnWindow is one in-flight shipped range [start, end).
type lsnWindow struct {
	start, end wal.LSN
}

// peerShip is the leader's per-peer replication cursor: the classic
// next/match pair plus the set of frame windows shipped but not yet
// acknowledged. inflight is bounded by Config.PipelineDepth; acks may
// arrive out of order and each one retires every window it covers.
type peerShip struct {
	next     wal.LSN
	match    wal.LSN
	inflight []lsnWindow
	// lastMove is the last time this peer's cursor made progress (or the
	// pipeline was reset); a stalled non-empty pipeline is rewound and
	// retransmitted after a few heartbeats.
	lastMove time.Time
}

// waiterHeap is the async-commit map ordered by LSN, so releasing the
// waiters covered by a DLSN advance pops from the top instead of
// scanning every parked transaction (10k parked commits cost
// O(released·log n), not O(n) per committer pass). It is a binary
// min-heap on lsn, typed so that no waiter is boxed on the way in or out.
type waiterHeap []commitWaiter

// push parks w.
func (h *waiterHeap) push(w commitWaiter) {
	*h = append(*h, w)
	h.up(len(*h) - 1)
}

// removeAt unparks and returns the waiter at index i; index 0 holds the
// lowest LSN.
func (h *waiterHeap) removeAt(i int) commitWaiter {
	s := *h
	last := len(s) - 1
	w := s[i]
	s[i] = s[last]
	s[last] = commitWaiter{}
	*h = s[:last]
	if i < last && !h.down(i) {
		h.up(i)
	}
	return w
}

func (h waiterHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].lsn <= h[i].lsn {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// down sifts i toward the leaves and reports whether it moved.
func (h waiterHeap) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].lsn < h[c].lsn {
			c = r
		}
		if h[i].lsn <= h[c].lsn {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return i > start
}

// dlsnTracker maintains the majority-persisted LSN incrementally: one
// slot per member, a sorted multiset of the slot values, and the DLSN
// candidate as the majority-th largest. Per-member values only ever
// grow (acks are cumulative), so each update is a single rightward
// bubble — O(members), zero allocations — instead of the seed's
// allocate-and-sort on every ack.
type dlsnTracker struct {
	slots    map[string]int
	vals     []wal.LSN
	sorted   []wal.LSN
	majority int
}

func (t *dlsnTracker) reset(members []Member, majority int) {
	if t.slots == nil {
		t.slots = make(map[string]int, len(members))
	} else {
		clear(t.slots)
	}
	t.vals = t.vals[:0]
	t.sorted = t.sorted[:0]
	for i, m := range members {
		t.slots[m.Name] = i
		t.vals = append(t.vals, 0)
		t.sorted = append(t.sorted, 0)
	}
	t.majority = majority
}

func (t *dlsnTracker) update(member string, v wal.LSN) {
	i, ok := t.slots[member]
	if !ok || v <= t.vals[i] {
		return
	}
	old := t.vals[i]
	t.vals[i] = v
	j := 0
	for t.sorted[j] != old {
		j++
	}
	t.sorted[j] = v
	for j+1 < len(t.sorted) && t.sorted[j] > t.sorted[j+1] {
		t.sorted[j], t.sorted[j+1] = t.sorted[j+1], t.sorted[j]
		j++
	}
}

// quorumLSN returns the largest LSN persisted by a majority of members
// (0 when the tracker is unset).
func (t *dlsnTracker) quorumLSN() wal.LSN {
	if t.majority <= 0 || len(t.sorted) < t.majority {
		return 0
	}
	return t.sorted[len(t.sorted)-t.majority]
}

func (n *Node) majority() int { return len(n.cfg.Members)/2 + 1 }

// flusherLoop is the group-commit engine. Propose appends MTRs under
// n.mu and kicks this loop; the loop then holds the accumulation window
// open (GroupCommitWindow, closed early once GroupCommitBytes are
// pending), grabs everything that joined, and pays ONE serialized redo
// flush for the whole batch. The window timer runs on real time like
// the other pacing loops — only lease/election logic uses the
// injectable clock. One timer serves every window.
func (n *Node) flusherLoop() {
	defer n.wg.Done()
	window := time.NewTimer(time.Hour)
	window.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-n.kickFlush:
		}
		if w := n.cfg.GroupCommitWindow; w > 0 {
			window.Reset(w)
			if !n.awaitWindow(window) {
				return
			}
		}
		n.mu.Lock()
		end, mtrs, epoch := n.gcPending, n.gcMTRs, n.gcEpoch
		n.gcMTRs = 0
		n.gcStart = end
		select {
		case <-n.gcFull: // drop a byte-cap signal raced past the grab
		default:
		}
		n.mu.Unlock()
		if mtrs == 0 {
			continue
		}
		n.flushAs(end, mtrs, epoch)
	}
}

// awaitWindow waits until the window timer, just Reset, fires or the byte
// cap closes the window early, and reports false if the node stopped.
// It leaves the timer stopped with its channel empty: when the cap wins
// over a timer that has already fired, the stale tick is drained, or it
// would close the next window at once. (go.mod's go version keeps the
// asynchronous timer channel, where Stop returning false means a tick is
// in flight.)
func (n *Node) awaitWindow(window *time.Timer) bool {
	select {
	case <-n.done:
		window.Stop()
		return false
	case <-n.gcFull:
		if !window.Stop() {
			<-window.C
		}
	case <-window.C:
	}
	return true
}

// flushAs performs one serialized redo flush making everything below
// end durable, charges it as a single flush covering mtrs MTRs, and
// feeds the leader's own durability into the DLSN tracker. FlushDelay
// models the latency of one redo write to PolarFS; flushes share one
// device, so they serialize on flushMu — which is exactly the cost
// group commit amortizes across a window.
func (n *Node) flushAs(end wal.LSN, mtrs int, epoch uint64) {
	n.flushMu.Lock()
	simnet.Delay(n.cfg.FlushDelay)
	// SetFlushed clamps at the tail, so a flush that raced with a
	// deposition-triggered truncate cannot declare vanished bytes
	// durable.
	n.log.SetFlushed(end)
	n.flushMu.Unlock()
	n.mFlushes.Inc()
	n.mGroupSize.Add(int64(mtrs))

	n.mu.Lock()
	if n.role == RoleLeader && n.epoch == epoch {
		n.tracker.update(n.cfg.Self, n.log.FlushedLSN())
		n.advanceDLSNLocked()
	}
	n.mu.Unlock()
	n.kickLoops()
}

// LeaseRead reports whether this node may answer a read-only snapshot
// read locally right now: it leads and its lease is valid, so no other
// leader can have committed anything this node has not seen (§III,
// leader lease). Successful lease reads skip the quorum path entirely
// and are counted in paxos.lease_reads.
func (n *Node) LeaseRead() bool {
	n.mu.Lock()
	ok := n.role == RoleLeader && n.clock.Now().Before(n.leaseEnd)
	n.mu.Unlock()
	if ok {
		n.mLeaseReads.Inc()
	}
	return ok
}

// ConfirmLeadership is the slow read path taken when the lease has
// lapsed: one synchronous probe round re-validates this node's epoch
// with a majority of the group, re-arming the lease as a side effect.
// Counted in paxos.quorum_reads.
func (n *Node) ConfirmLeadership() error {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotLeader, n.cfg.Self)
	}
	epoch := n.epoch
	dlsn := n.dlsn
	n.mu.Unlock()
	n.mQuorumRds.Inc()

	if need := n.majority() - 1; need > 0 {
		acks := make(chan bool, len(n.cfg.Members))
		probes := 0
		for _, m := range n.cfg.Members {
			if m.Name == n.cfg.Self {
				continue
			}
			probes++
			go func(peer string) {
				msg := appendMsg{Group: n.cfg.Group, Epoch: epoch,
					Leader: n.cfg.Self, DLSN: dlsn}
				reply, err := n.cfg.Net.Call(n.endpoint(), endpointOf(n.cfg.Group, peer), msg)
				if err != nil {
					acks <- false
					return
				}
				ack, ok := reply.(appendAck)
				if !ok {
					acks <- false
					return
				}
				n.handleAck(ack)
				// A Rejected ack still confirms the epoch: the follower
				// is missing log, not disputing leadership.
				acks <- ack.Epoch == epoch
			}(m.Name)
		}
		got := 0
		for i := 0; i < probes && got < need; i++ {
			if <-acks {
				got++
			}
		}
		if got < need {
			return fmt.Errorf("%w: no quorum confirmation", ErrLeaseExpired)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleLeader || n.epoch != epoch {
		return fmt.Errorf("%w: %s", ErrNotLeader, n.cfg.Self)
	}
	n.renewLeaseLocked()
	return nil
}

// releaseWaitersLocked completes every parked waiter the current DLSN
// covers. This is the async_log_committer's scan of the
// transaction-context map — with the heap it touches only the waiters it
// releases. Waiter channels are buffered, so sending under the lock
// cannot block.
func (n *Node) releaseWaitersLocked() {
	for len(n.waiters) > 0 && n.waiters[0].lsn <= n.dlsn {
		n.waiters.removeAt(0).ch <- nil
	}
}

// failWaitersLocked completes every parked waiter with err. Waiter
// channels are buffered, so sending under the lock cannot block.
func (n *Node) failWaitersLocked(err error) {
	for _, w := range n.waiters {
		w.ch <- err
	}
	n.waiters = n.waiters[:0]
}

// clockAfter returns a channel that fires after d on the node's clock.
// With the wall clock it is a plain timer; with a FakeClock a helper
// goroutine parks in Sleep until a test advances the clock (if the test
// never does, the goroutine stays parked until process exit —
// acceptable for test-scoped fakes).
func (n *Node) clockAfter(d time.Duration) <-chan time.Time {
	if n.clock == obs.Wall {
		return time.After(d)
	}
	ch := make(chan time.Time, 1)
	go func() {
		n.clock.Sleep(d)
		ch <- time.Time{}
	}()
	return ch
}
