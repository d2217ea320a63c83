package paxos

import (
	"sync/atomic"
	"time"

	"repro/internal/simnet"
	"repro/internal/wal"
)

// shipperLoop is the leader's replication pump. It watches the local
// flushed watermark and streams MLOG_PAXOS frame windows to every peer,
// keeping up to PipelineDepth windows in flight each. In pipelined mode
// (the default, per §III) windows are fired asynchronously and
// acknowledgements come back as appendAck messages; in the ablation
// mode each window is a blocking round trip.
func (n *Node) shipperLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		tick := false
		select {
		case <-n.done:
			return
		case <-n.kickShip:
		case <-ticker.C:
			tick = true
		}
		n.shipOnce(tick)
	}
}

// shipOnce fills each peer's pipeline with new frame windows up to the
// flushed watermark (only flushed redo ships — §III: redo is flushed to
// PolarFS before it is sent to followers). On ticker passes it also
// sends empty heartbeat windows to idle peers (lease renewal, DLSN
// propagation) and rewinds pipelines that stalled — a window or its ack
// was lost — so the data is retransmitted; followers skip duplicate
// frames, making the resend safe.
func (n *Node) shipOnce(tick bool) {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	epoch := n.epoch
	dlsn := n.dlsn
	flushed := n.log.FlushedLSN()
	now := n.clock.Now()
	depth := n.cfg.PipelineDepth
	if !n.cfg.Pipelined {
		depth = 1
	}
	stallAfter := 4 * n.cfg.HeartbeatEvery
	type job struct {
		peer     string
		from, to wal.LSN
	}
	var jobs []job
	var beats []string
	for _, m := range n.cfg.Members {
		if m.Name == n.cfg.Self {
			continue
		}
		p := n.peers[m.Name]
		if tick && len(p.inflight) > 0 && now.Sub(p.lastMove) >= stallAfter {
			p.inflight = p.inflight[:0]
			rew := p.match
			if base := n.log.BaseLSN(); rew < base {
				rew = base
			}
			p.next = rew
			p.lastMove = now
		}
		sent := false
		for len(p.inflight) < depth && p.next < flushed {
			to := p.next + wal.LSN(n.cfg.WindowBytes)
			if to > flushed {
				to = flushed
			}
			jobs = append(jobs, job{peer: m.Name, from: p.next, to: to})
			p.inflight = append(p.inflight, lsnWindow{start: p.next, end: to})
			p.next = to
			sent = true
		}
		if !sent && tick {
			beats = append(beats, m.Name)
		}
	}
	n.mu.Unlock()

	for _, j := range jobs {
		raw, err := n.log.ReadBytes(j.from, j.to)
		if err != nil {
			continue // purged/truncated under us; the stall rewind recovers
		}
		frames := wal.NewBatcher(epoch, n.cfg.BatchBytes).Next(j.from, raw)
		var wire int64
		for i := range frames {
			wire += int64(len(frames[i].Payload))
		}
		atomic.AddInt64(&n.bytesRaw, int64(len(raw)))
		atomic.AddInt64(&n.bytesWire, wire)
		n.mCompIn.Add(int64(len(raw)))
		n.mCompOut.Add(wire)
		n.sendWindow(j.peer, appendMsg{Group: n.cfg.Group, Epoch: epoch,
			Leader: n.cfg.Self, Frames: frames, DLSN: dlsn})
	}
	for _, peer := range beats {
		n.sendWindow(peer, appendMsg{Group: n.cfg.Group, Epoch: epoch,
			Leader: n.cfg.Self, DLSN: dlsn})
	}
}

// sendWindow fires one appendMsg at a peer: async in pipelined mode,
// a blocking round trip (ack applied inline) in the ablation mode.
func (n *Node) sendWindow(peer string, msg appendMsg) {
	peerEP := endpointOf(n.cfg.Group, peer)
	atomic.AddInt64(&n.framesSent, int64(len(msg.Frames)))
	if n.cfg.Pipelined {
		n.cfg.Net.Send(n.endpoint(), peerEP, msg, nil)
		return
	}
	reply, err := n.cfg.Net.Call(n.endpoint(), peerEP, msg)
	if err == nil {
		if ack, ok := reply.(appendAck); ok {
			n.handleAck(ack)
		}
	}
}

// committerLoop is the async_log_committer: it wakes when DLSN may have
// advanced, completes parked transactions, and hands newly durable
// records to OnApply in LSN order.
func (n *Node) committerLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-n.kickCommit:
		case <-ticker.C:
		}
		n.commitOnce()
	}
}

func (n *Node) commitOnce() {
	n.mu.Lock()
	ready := n.releaseWaitersLocked()
	var applyFrom, applyTo wal.LSN
	if n.cfg.OnApply != nil && n.applied < n.dlsn {
		limit := n.dlsn
		if n.role == RoleLeader && limit > n.promotedTail {
			// Leader-era entries were applied by the proposer itself;
			// only the follower-era backlog goes through OnApply.
			limit = n.promotedTail
		}
		if n.applied < limit {
			applyFrom, applyTo = n.applied, limit
		}
	}
	n.mu.Unlock()

	for _, w := range ready {
		w.ch <- nil
	}
	if applyTo > applyFrom {
		// The cursor advances only after a successful read: if the range
		// cannot be served (e.g. it was purged out from under us), the next
		// tick retries rather than silently skipping records. Safe because
		// committerLoop is the only goroutine moving n.applied forward.
		if recs, err := n.log.ReadRecords(applyFrom, applyTo); err == nil {
			n.cfg.OnApply(recs, applyFrom, applyTo)
			n.mu.Lock()
			if n.applied < applyTo {
				n.applied = applyTo
			}
			n.mu.Unlock()
		}
	}
}

// electionLoop runs follower-side failure detection and candidacy.
// Loggers participate in voting (handled in handle) but never campaign.
// Idle detection runs on the injectable clock so FakeClock tests can
// step elections deterministically.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	n.mu.Lock()
	n.lastBeat = n.clock.Now()
	n.mu.Unlock()
	for {
		timeout := n.cfg.ElectionTimeout +
			time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
		select {
		case <-n.done:
			return
		case <-n.clockAfter(timeout):
		}
		n.mu.Lock()
		role := n.role
		idle := n.clock.Since(n.lastBeat)
		n.mu.Unlock()
		if role == RoleLeader || role == RoleLogger {
			continue
		}
		if idle < n.cfg.ElectionTimeout {
			continue
		}
		n.campaign()
	}
}

// campaign runs one election round. Votes are granted only to candidates
// whose log tail is at least as long as the voter's DLSN-durable prefix,
// guaranteeing the paper's invariant that "the newly chosen leader has
// complete log entries before DLSN".
func (n *Node) campaign() {
	n.mu.Lock()
	if n.role == RoleLeader || n.role == RoleLogger || n.stopped {
		n.mu.Unlock()
		return
	}
	n.role = RoleCandidate
	n.epoch++
	epoch := n.epoch
	n.votedIn = epoch // vote for self
	lastLSN := n.log.TailLSN()
	atomic.AddInt64(&n.elections, 1)
	n.mu.Unlock()

	req := voteReq{Group: n.cfg.Group, Epoch: epoch, Candidate: n.cfg.Self, LastLSN: lastLSN}
	votes := 1 // self
	type result struct {
		granted   bool
		epoch     uint64
		peer      string // set on an explicit (reachable) refusal
		voterDLSN wal.LSN
		voterTail wal.LSN
	}
	results := make(chan result, len(n.cfg.Members))
	for _, m := range n.cfg.Members {
		if m.Name == n.cfg.Self {
			continue
		}
		go func(peer string) {
			reply, err := n.cfg.Net.Call(n.endpoint(), endpointOf(n.cfg.Group, peer), req)
			if err != nil {
				results <- result{}
				return
			}
			if vr, ok := reply.(voteResp); ok {
				res := result{granted: vr.Granted, epoch: vr.Epoch}
				if !vr.Granted {
					res.peer = peer
					res.voterDLSN = vr.VoterDLSN
					res.voterTail = vr.VoterTail
				}
				results <- res
				return
			}
			results <- result{}
		}(m.Name)
	}
	majority := n.majority()
	// Track the most advanced refuser so a short-logged candidate can
	// catch up before the next attempt.
	var bestPeer string
	var bestDLSN wal.LSN
	for i := 0; i < len(n.cfg.Members)-1; i++ {
		r := <-results
		if r.epoch > epoch && r.peer == "" {
			// Someone is ahead; step back to follower at their epoch.
			n.mu.Lock()
			if r.epoch > n.epoch {
				n.epoch = r.epoch
			}
			n.role = RoleFollower
			n.mu.Unlock()
			return
		}
		if r.granted {
			votes++
		} else if r.peer != "" {
			// Refused by a reachable voter with a longer persisted log
			// (tail or durable prefix): remember the most advanced one
			// to catch up from before the next attempt.
			adv := r.voterDLSN
			if r.voterTail > adv {
				adv = r.voterTail
			}
			if adv > lastLSN && adv > bestDLSN {
				bestPeer, bestDLSN = r.peer, adv
			}
		}
		if votes >= majority {
			break
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleCandidate || n.epoch != epoch {
		return // lost the race while collecting votes
	}
	if votes >= majority {
		n.becomeLeaderLocked(epoch)
		n.lastBeat = n.clock.Now()
		// Commits parked under the old leadership cannot be confirmed;
		// this node was a follower so it has none, but assert the
		// invariant by failing any stragglers.
		n.failWaitersLocked(ErrCommitAbort)
		go n.kickLoops()
	} else {
		n.role = RoleFollower
		if bestPeer != "" {
			// Our log is behind the durable majority prefix: fetch the
			// missing suffix before the next campaign round.
			go n.catchUpFrom(bestPeer)
		}
	}
}

// catchUpFrom copies missing durable log from a peer (possibly a Logger)
// so this node becomes electable.
func (n *Node) catchUpFrom(peer string) {
	from := n.log.FlushedLSN()
	reply, err := n.cfg.Net.Call(n.endpoint(), endpointOf(n.cfg.Group, peer), fetchReq{Group: n.cfg.Group, From: from})
	if err != nil {
		return
	}
	fr, ok := reply.(fetchResp)
	if !ok || len(fr.Bytes) == 0 || fr.Start != from {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader || n.log.TailLSN() != from {
		return // state moved while fetching
	}
	n.log.AppendRaw(fr.Bytes)
	n.log.SetFlushed(n.log.TailLSN())
	if fr.DLSN > n.dlsn && fr.DLSN <= n.log.FlushedLSN() {
		n.dlsn = fr.DLSN
	}
}

// handleFetch serves raw log bytes [From, flushed) for candidate
// catch-up.
func (n *Node) handleFetch(m fetchReq) (fetchResp, error) {
	n.mu.Lock()
	flushed := n.log.FlushedLSN()
	dlsn := n.dlsn
	n.mu.Unlock()
	if m.From >= flushed {
		return fetchResp{Start: m.From, DLSN: dlsn}, nil
	}
	b, err := n.log.ReadBytes(m.From, flushed)
	if err != nil {
		return fetchResp{Start: m.From, DLSN: dlsn}, nil
	}
	return fetchResp{Start: m.From, Bytes: b, DLSN: dlsn}, nil
}

// handle dispatches incoming simnet messages.
func (n *Node) handle(from string, msg any) (any, error) {
	switch m := msg.(type) {
	case appendMsg:
		return n.handleAppend(m), nil
	case appendAck:
		n.handleAck(m)
		return nil, nil
	case voteReq:
		return n.handleVote(m), nil
	case heartbeatMsg:
		n.handleHeartbeat(m)
		return nil, nil
	case fetchReq:
		return n.handleFetch(m)
	default:
		return nil, nil
	}
}

// handleAppend is the follower-side frame ingestion: verify epoch,
// append contiguous frames, persist, advance DLSN from the piggybacked
// value, and acknowledge. The redo flush (FlushDelay) happens outside
// n.mu so concurrent windows queue on the flush device, not on protocol
// state — and a later window's flush covers an earlier one's bytes, the
// follower-side analogue of group commit.
func (n *Node) handleAppend(m appendMsg) appendAck {
	n.mu.Lock()
	if m.Epoch < n.epoch {
		ack := appendAck{Group: n.cfg.Group, Epoch: n.epoch, From: n.cfg.Self,
			AckLSN: n.log.FlushedLSN(), Rejected: true}
		n.mu.Unlock()
		return ack
	}
	if m.Epoch > n.epoch || n.leader != m.Leader {
		// New leader discovered. An old leader stepping down must clean
		// conflicting state: discard log beyond DLSN (§III).
		n.adoptLeaderLocked(m.Epoch, m.Leader)
	}
	n.lastBeat = n.clock.Now()
	rejected := false
	var appendedTo wal.LSN
	for _, fr := range m.Frames {
		tail := n.log.TailLSN()
		switch {
		case fr.EndLSN <= tail:
			// Duplicate from a pipelined retransmit; ignore.
		case fr.StartLSN == tail:
			body, err := fr.Body()
			if err != nil {
				// Undecodable payload despite a valid CRC: reject the
				// window so the leader rewinds and reships.
				rejected = true
				break
			}
			n.log.AppendRaw(body)
			appendedTo = fr.EndLSN
		default:
			// Gap: ask the leader to rewind to our tail.
			rejected = true
		}
		if rejected {
			break
		}
	}
	// A DLSN ahead of our tail means we are missing log (e.g. we were
	// down or a window was dropped while the majority moved on): signal
	// the gap so the leader rewinds our shipping cursor.
	if m.DLSN > n.log.TailLSN() {
		rejected = true
	}
	n.mu.Unlock()

	if appendedTo > 0 {
		n.flushMu.Lock()
		if n.log.FlushedLSN() < appendedTo {
			simnet.Delay(n.cfg.FlushDelay)
			n.log.SetFlushed(appendedTo)
		}
		n.flushMu.Unlock()
	}

	n.mu.Lock()
	// Adopt the leader's DLSN up to what we have locally persisted.
	flushed := n.log.FlushedLSN()
	d := m.DLSN
	if d > flushed {
		d = flushed
	}
	if d > n.dlsn {
		n.dlsn = d
	}
	ack := appendAck{Group: n.cfg.Group, Epoch: n.epoch, From: n.cfg.Self,
		AckLSN: flushed, Rejected: rejected}
	n.mu.Unlock()
	n.kickLoops()

	if n.cfg.Pipelined {
		// Send the ack as its own message; the synchronous reply is
		// ignored by pipelined leaders.
		n.cfg.Net.Send(n.endpoint(), endpointOf(n.cfg.Group, m.Leader), ack, nil)
	}
	return ack
}

// adoptLeaderLocked switches allegiance to a (possibly new) leader. If
// this node was the old leader, redo beyond DLSN is discarded — those
// entries may never have reached a majority and the new leader may have
// truncated them (§III, Leader Election: the old leader "determines the
// range of redo log entries that are not submitted, evicts dirty pages
// related to them").
func (n *Node) adoptLeaderLocked(epoch uint64, leader string) {
	wasLeader := n.role == RoleLeader
	n.epoch = epoch
	n.leader = leader
	if n.role != RoleLogger {
		n.role = RoleFollower
	}
	if wasLeader {
		// Abandon the pending group-commit window: its MTRs sit beyond
		// DLSN and are truncated right here. A flush already in flight
		// for them clamps at the truncated tail (SetFlushed never
		// passes the tail), so nothing vanished is declared durable.
		n.gcPending, n.gcMTRs = 0, 0
		n.gcStart = 0
		n.peers = nil
		_ = n.log.Truncate(n.dlsn)
		n.failWaitersLocked(ErrCommitAbort)
	}
}

// handleAck is the leader-side ack ingestion: advance the peer's match
// LSN, retire covered in-flight windows (acks may arrive out of order),
// rewind next on rejection, and recompute DLSN incrementally.
func (n *Node) handleAck(m appendAck) {
	n.mu.Lock()
	if n.role != RoleLeader || m.Epoch != n.epoch {
		if m.Epoch > n.epoch {
			n.adoptLeaderLocked(m.Epoch, "")
		}
		n.mu.Unlock()
		return
	}
	atomic.AddInt64(&n.framesAcked, 1)
	p := n.peers[m.From]
	if p == nil {
		n.mu.Unlock()
		return
	}
	progress := false
	// A correct peer never exceeds this leader's own durable prefix; an
	// ack beyond it comes from a divergent orphan suffix (a rejoining
	// replica that outran a dead leader) and must not count toward DLSN.
	ack := m.AckLSN
	if flushed := n.log.FlushedLSN(); ack > flushed {
		ack = flushed
	}
	if ack > p.match {
		p.match = ack
		n.tracker.update(m.From, ack)
		progress = true
	}
	if m.Rejected {
		p.next = ack
		p.inflight = p.inflight[:0]
		progress = true
	} else {
		keep := p.inflight[:0]
		for _, w := range p.inflight {
			if w.end > ack {
				keep = append(keep, w)
			}
		}
		p.inflight = keep
	}
	if len(p.inflight) == 0 && p.next != p.match {
		// Nothing en route and the peer sits away from next: resync so
		// the shipper refills from its acked position. This is how a
		// freshly promoted leader (peers start at its own tail) discovers
		// a follower that is behind it — without it, a survivor that
		// lagged the new leader at election time never receives the gap
		// and DLSN wedges below the promotion tail.
		p.next = p.match
		progress = true
	}
	now := n.clock.Now()
	if progress {
		p.lastMove = now
	}
	n.ackAt[m.From] = now
	n.renewLeaseLocked()
	prev := n.dlsn
	n.advanceDLSNLocked()
	advanced := n.dlsn > prev
	n.mu.Unlock()
	if advanced || progress {
		n.kickLoops()
	}
}

// handleVote grants a vote iff the candidate's epoch is new to this node
// and its log covers everything this node knows to be durable.
func (n *Node) handleVote(m voteReq) voteResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	refuse := voteResp{Group: n.cfg.Group, Epoch: n.epoch, Granted: false,
		VoterDLSN: n.dlsn, VoterTail: n.log.FlushedLSN()}
	if m.Epoch <= n.epoch || m.Epoch <= n.votedIn {
		return refuse
	}
	if m.LastLSN < n.dlsn || m.LastLSN < n.log.FlushedLSN() {
		// Candidate is missing entries this node has persisted. The DLSN
		// check alone is not enough with pipelined windows: our view of
		// DLSN is a piggyback and can lag our flushed tail, and bytes we
		// flushed may already be majority-durable (acked to a committer)
		// without either survivor knowing. Refuse (safety) but advertise
		// our log so the candidate can catch up and retry.
		return refuse
	}
	n.votedIn = m.Epoch
	if n.role == RoleLeader {
		// Step down: a quorum is moving on.
		n.adoptLeaderLocked(m.Epoch, "")
	} else {
		n.epoch = m.Epoch
	}
	n.lastBeat = n.clock.Now()
	return voteResp{Group: n.cfg.Group, Epoch: m.Epoch, Granted: true}
}

func (n *Node) handleHeartbeat(m heartbeatMsg) {
	n.handleAppend(appendMsg{Group: m.Group, Epoch: m.Epoch, Leader: m.Leader, DLSN: m.DLSN})
}

// HoldsLease reports whether a leader's lease is current. CN/DN reads
// routed through the leader check this to keep linearizable semantics.
func (n *Node) HoldsLease() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader && n.clock.Now().Before(n.leaseEnd)
}

// Metrics snapshot.
type Metrics struct {
	FramesSent  int64
	FramesAcked int64
	Elections   int64
	// Flushes counts leader redo flushes; GroupedMTRs counts the MTRs
	// those flushes covered (mean group size = GroupedMTRs/Flushes).
	Flushes     int64
	GroupedMTRs int64
	LeaseReads  int64
	QuorumReads int64
	// BytesShippedRaw/Wire measure log-shipping compression: redo bytes
	// handed to the frame batcher vs frame payload bytes actually sent.
	BytesShippedRaw  int64
	BytesShippedWire int64
}

// CompressRatio returns raw/wire for the shipped log (1.0 = no win).
func (m Metrics) CompressRatio() float64 {
	if m.BytesShippedWire == 0 {
		return 1
	}
	return float64(m.BytesShippedRaw) / float64(m.BytesShippedWire)
}

// MetricsSnapshot returns protocol counters.
func (n *Node) MetricsSnapshot() Metrics {
	return Metrics{
		FramesSent:       atomic.LoadInt64(&n.framesSent),
		FramesAcked:      atomic.LoadInt64(&n.framesAcked),
		Elections:        atomic.LoadInt64(&n.elections),
		Flushes:          n.mFlushes.Value(),
		GroupedMTRs:      n.mGroupSize.Value(),
		LeaseReads:       n.mLeaseReads.Value(),
		QuorumReads:      n.mQuorumRds.Value(),
		BytesShippedRaw:  atomic.LoadInt64(&n.bytesRaw),
		BytesShippedWire: atomic.LoadInt64(&n.bytesWire),
	}
}
