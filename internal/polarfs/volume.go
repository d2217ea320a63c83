package polarfs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/simnet"
)

// replicaGroup is one chunk's ParallelRaft group: three replicas in one
// datacenter, one of which is leader. Writes go to the leader, which
// persists locally and ships the write to followers; the write is
// acknowledged once a majority (2 of 3) has persisted. Non-overlapping
// writes replicate concurrently without ordering against each other —
// callers (the DN) serialize writes to the same byte range themselves,
// which is exactly the contract a page store provides.
type replicaGroup struct {
	chunk    chunkID
	replicas []string // server names; replicas[leader] is the leader
	mu       sync.Mutex
	leader   int
}

func (g *replicaGroup) leaderName() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.replicas[g.leader]
}

// failover rotates leadership to the next replica; returns the new
// leader's name. The real system elects via ParallelRaft; rotation is
// sufficient because replicas are kept identical by majority writes.
func (g *replicaGroup) failover() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.leader = (g.leader + 1) % len(g.replicas)
	return g.replicas[g.leader]
}

// Volume is a virtual block device backed by replicated chunks. It grows
// on demand: writing past the provisioned end allocates new chunks (the
// paper's "chunks are provisioned on demand so that volume space grows
// dynamically").
type Volume struct {
	name    string
	dc      simnet.DC
	cluster *Cluster

	mu     sync.RWMutex
	groups []*replicaGroup
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// DC returns the datacenter the volume is homed in.
func (v *Volume) DC() simnet.DC { return v.dc }

// Size returns the provisioned size in bytes.
func (v *Volume) Size() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return int64(len(v.groups)) * v.cluster.chunkSize
}

// Chunks returns the number of provisioned chunks.
func (v *Volume) Chunks() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.groups)
}

// ensureChunks provisions replica groups so that byte offset end-1 exists.
func (v *Volume) ensureChunks(end int64) error {
	need := int((end + v.cluster.chunkSize - 1) / v.cluster.chunkSize)
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.groups) < need {
		if len(v.groups) >= MaxChunksPerVol {
			return fmt.Errorf("%w: %s", ErrVolumeFull, v.name)
		}
		v.cluster.mu.Lock()
		servers := v.cluster.serversInDC(v.dc)
		v.cluster.mu.Unlock()
		if len(servers) < ReplicasPerChunk {
			return fmt.Errorf("%w: need %d", ErrNoServers, ReplicasPerChunk)
		}
		names := make([]string, ReplicasPerChunk)
		v.cluster.mu.Lock()
		for i := 0; i < ReplicasPerChunk; i++ {
			names[i] = servers[i].name
			v.cluster.placed[names[i]]++
		}
		v.cluster.mu.Unlock()
		v.groups = append(v.groups, &replicaGroup{
			chunk:    chunkID{vol: v.name, idx: len(v.groups)},
			replicas: names,
		})
	}
	return nil
}

// group returns the replica group covering byte offset off, which must be
// provisioned.
func (v *Volume) group(off int64) (*replicaGroup, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	idx := int(off / v.cluster.chunkSize)
	if idx >= len(v.groups) {
		return nil, fmt.Errorf("%w: offset %d, size %d",
			ErrOutOfRange, off, int64(len(v.groups))*v.cluster.chunkSize)
	}
	return v.groups[idx], nil
}

// WriteAt durably writes data at the given offset, provisioning chunks as
// needed and replicating each chunk-local slice to a majority of its
// replica group. caller is the endpoint name of the writing DN (the
// simnet source for latency accounting).
func (v *Volume) WriteAt(caller string, off int64, data []byte) error {
	if off < 0 {
		return ErrNegativeOffset
	}
	if len(data) == 0 {
		return nil
	}
	if err := v.ensureChunks(off + int64(len(data))); err != nil {
		return err
	}
	cs := v.cluster.chunkSize
	for len(data) > 0 {
		within := off % cs
		n := cs - within
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		g, err := v.group(off)
		if err != nil {
			return err
		}
		if err := v.replicate(caller, g, within, data[:n]); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	return nil
}

// replicate performs the ParallelRaft majority write for one chunk-local
// range: all replicas are written concurrently and the call returns as
// soon as a majority (including, preferentially, the leader) succeeded.
func (v *Volume) replicate(caller string, g *replicaGroup, off int64, data []byte) error {
	req := writeReq{Chunk: g.chunk, Offset: off, Data: data, Size: v.cluster.chunkSize}
	if len(data) >= 64 {
		// Compress once; every replica ships the same smaller payload.
		if enc := compress.Encode(nil, data); len(enc) < len(data) {
			req.Data, req.Codec = enc, 1
		}
	}
	g.mu.Lock()
	leaderIdx := g.leader
	replicas := append([]string(nil), g.replicas...)
	g.mu.Unlock()
	atomic.AddInt64(&v.cluster.bytesRepRaw, int64(len(data))*int64(len(replicas)))
	atomic.AddInt64(&v.cluster.bytesRepWire, int64(len(req.Data))*int64(len(replicas)))

	// The leader must persist before the write is acknowledged — reads are
	// served from the leader, so a quorum that excluded it would not be
	// linearizable. If the leader is down, fail over and retry once with
	// the new leader so a single replica failure never fails the write.
	if _, err := v.cluster.net.Call(caller, replicas[leaderIdx], req); err != nil {
		newLeader := g.failover()
		if _, err2 := v.cluster.net.Call(caller, newLeader, req); err2 != nil {
			g.failover()
			if _, err3 := v.cluster.net.Call(caller, g.leaderName(), req); err3 != nil {
				return fmt.Errorf("%w: chunk %s: %v", ErrQuorumLost, g.chunk, err3)
			}
		}
		g.mu.Lock()
		leaderIdx = g.leader
		g.mu.Unlock()
	}

	// Ship to the remaining replicas concurrently; one more ack completes
	// the majority. Failed followers are tolerated as long as the quorum
	// holds (ParallelRaft acks out of order, so no barrier on slower ones).
	followers := make([]string, 0, len(replicas)-1)
	for i, r := range replicas {
		if i != leaderIdx {
			followers = append(followers, r)
		}
	}
	acks := make(chan error, len(followers))
	for _, r := range followers {
		go func(r string) {
			_, err := v.cluster.net.Call(caller, r, req)
			acks <- err
		}(r)
	}
	// Drain every follower response rather than returning at quorum: read
	// failover may promote any replica, so every *alive* replica must hold
	// the write before it is acknowledged. Down replicas fail fast and are
	// tolerated while a majority holds. (Real ParallelRaft instead
	// restricts election to up-to-date replicas; draining is the
	// simulation-friendly equivalent with identical observable behaviour.)
	need := len(replicas)/2 + 1 - 1 // leader already persisted
	var ok int
	for i := 0; i < len(followers); i++ {
		if err := <-acks; err == nil {
			ok++
		}
	}
	if ok >= need {
		return nil
	}
	return fmt.Errorf("%w: chunk %s", ErrQuorumLost, g.chunk)
}

// ReadAt reads length bytes at off from each covering chunk's leader
// replica, failing over to another replica if the leader is down. Reads
// are linearizable with respect to acknowledged writes because a majority
// write always includes the current leader unless it has failed, in which
// case failover selects a replica that holds the write.
func (v *Volume) ReadAt(caller string, off, length int64) ([]byte, error) {
	if off < 0 {
		return nil, ErrNegativeOffset
	}
	if length == 0 {
		return nil, nil
	}
	if off+length > v.Size() {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+length, v.Size())
	}
	out := make([]byte, 0, length)
	cs := v.cluster.chunkSize
	for length > 0 {
		within := off % cs
		n := cs - within
		if n > length {
			n = length
		}
		g, err := v.group(off)
		if err != nil {
			return nil, err
		}
		part, err := v.readChunk(caller, g, within, n)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
		off += n
		length -= n
	}
	return out, nil
}

func (v *Volume) readChunk(caller string, g *replicaGroup, off, n int64) ([]byte, error) {
	req := readReq{Chunk: g.chunk, Offset: off, Len: n}
	var lastErr error
	for attempt := 0; attempt < ReplicasPerChunk; attempt++ {
		reply, err := v.cluster.net.Call(caller, g.leaderName(), req)
		if err == nil {
			return reply.([]byte), nil
		}
		lastErr = err
		g.failover()
	}
	return nil, fmt.Errorf("polarfs: all replicas failed for chunk %s: %w", g.chunk, lastErr)
}
