// Package polarfs simulates PolarFS, the durable shared-storage layer
// (SN) of PolarDB-X (paper §II-A).
//
// PolarFS exposes virtual volumes partitioned into fixed-size chunks.
// Chunks are provisioned on demand and placed on three chunk servers
// (storage nodes) inside one datacenter; writes are replicated with a
// ParallelRaft-style protocol: the leader replica persists locally, ships
// the write to followers, and acknowledges as soon as a majority has
// persisted — without serializing acknowledgements of non-overlapping
// writes behind each other (the "parallel" in ParallelRaft).
//
// The paper's numbers: chunks are 10 GB, a volume holds up to 10 000
// chunks (100 TB). The simulator keeps those limits configurable (tests
// use small chunks) but enforces the same contract the DN layer relies
// on: durable, linearizable chunk writes shared between RW and RO nodes.
// Cross-datacenter replication is NOT PolarFS's job — it happens one
// layer up, at the DN layer via Paxos (§III).
package polarfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/simnet"
)

// Defaults mirroring the paper (scaled: the real chunk size is 10 GB).
const (
	DefaultChunkSize = 1 << 20 // 1 MiB in simulation
	MaxChunksPerVol  = 10000
	ReplicasPerChunk = 3
)

// Errors.
var (
	ErrVolumeFull     = errors.New("polarfs: volume reached max chunk count")
	ErrNoServers      = errors.New("polarfs: not enough chunk servers in DC")
	ErrUnknownVolume  = errors.New("polarfs: unknown volume")
	ErrOutOfRange     = errors.New("polarfs: read beyond provisioned space")
	ErrQuorumLost     = errors.New("polarfs: replica quorum unavailable")
	ErrServerExists   = errors.New("polarfs: chunk server already registered")
	ErrUnknownServer  = errors.New("polarfs: unknown chunk server")
	ErrVolumeExists   = errors.New("polarfs: volume already exists")
	ErrNegativeOffset = errors.New("polarfs: negative offset")
)

// chunkID identifies one replica-set worth of data: volume + index.
type chunkID struct {
	vol string
	idx int
}

func (c chunkID) String() string { return fmt.Sprintf("%s/%d", c.vol, c.idx) }

// ChunkServer is one storage node (SN). It holds chunk replicas in memory
// and serves replication RPCs over the simnet fabric.
type ChunkServer struct {
	name string
	dc   simnet.DC

	mu     sync.RWMutex
	chunks map[chunkID][]byte
	down   bool
}

// writeReq is the replication RPC payload between replicas. Data may be
// block-compressed (Codec 1, internal/compress): the writer compresses
// once and every replica receives the same shrunken payload — the
// "pay the CPU once, ship less three times" PolarStore trade.
type writeReq struct {
	Chunk  chunkID
	Offset int64
	Data   []byte
	Size   int64 // chunk size, for lazy allocation on followers
	Codec  uint8 // 0 = raw, 1 = LZ block
}

type readReq struct {
	Chunk  chunkID
	Offset int64
	Len    int64
}

func (s *ChunkServer) handle(from string, msg any) (any, error) {
	switch m := msg.(type) {
	case writeReq:
		return nil, s.applyWrite(m)
	case readReq:
		return s.readLocal(m)
	default:
		return nil, fmt.Errorf("polarfs: %s: unexpected message %T", s.name, msg)
	}
}

func (s *ChunkServer) applyWrite(m writeReq) error {
	data := m.Data
	if m.Codec != 0 {
		// Decompress into a fresh buffer — the request (and its backing
		// array) is shared with the other replicas' deliveries and must
		// not be mutated.
		dec, err := compress.Decode(nil, m.Data)
		if err != nil {
			return fmt.Errorf("polarfs: %s: bad compressed write: %w", s.name, err)
		}
		data = dec
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.chunks[m.Chunk]
	if !ok {
		buf = make([]byte, m.Size)
		s.chunks[m.Chunk] = buf
	}
	copy(buf[m.Offset:], data)
	return nil
}

func (s *ChunkServer) readLocal(m readReq) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]byte, m.Len)
	// A provisioned-but-unwritten chunk reads as zeroes, like a sparse file.
	if buf, ok := s.chunks[m.Chunk]; ok {
		copy(out, buf[m.Offset:m.Offset+m.Len])
	}
	return out, nil
}

// chunkCount is used for least-loaded placement.
func (s *ChunkServer) chunkCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// Name returns the server's endpoint name.
func (s *ChunkServer) Name() string { return s.name }

// Cluster is the PolarFS control plane: chunk servers, volumes, placement.
type Cluster struct {
	net       *simnet.Network
	chunkSize int64
	// bytesRepRaw/Wire count replication traffic: logical bytes that had
	// to reach replicas vs payload bytes actually moved.
	bytesRepRaw  int64
	bytesRepWire int64

	mu      sync.Mutex
	servers map[string]*ChunkServer
	volumes map[string]*Volume
	// placed counts replica assignments per server (including chunks not
	// yet materialized by a write), for least-loaded placement.
	placed map[string]int
}

// ReplicationBytes reports raw (logical bytes × replicas) and wire
// (payload bytes × replicas) replication traffic so far.
func (c *Cluster) ReplicationBytes() (raw, wire int64) {
	return atomic.LoadInt64(&c.bytesRepRaw), atomic.LoadInt64(&c.bytesRepWire)
}

// NewCluster creates a PolarFS cluster on the given fabric. chunkSize <= 0
// defaults to DefaultChunkSize.
func NewCluster(net *simnet.Network, chunkSize int64) *Cluster {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Cluster{
		net:       net,
		chunkSize: chunkSize,
		servers:   make(map[string]*ChunkServer),
		volumes:   make(map[string]*Volume),
		placed:    make(map[string]int),
	}
}

// AddServer registers a new chunk server (SN) in a datacenter. Extending
// storage capacity "can be achieved by adding more SN nodes" (§II-A);
// this is that operation.
func (c *Cluster) AddServer(name string, dc simnet.DC) (*ChunkServer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.servers[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrServerExists, name)
	}
	s := &ChunkServer{name: name, dc: dc, chunks: make(map[chunkID][]byte)}
	c.net.Register(name, dc, s.handle)
	c.servers[name] = s
	return s, nil
}

// SetServerDown crashes or recovers a chunk server.
func (c *Cluster) SetServerDown(name string, down bool) error {
	c.mu.Lock()
	s, ok := c.servers[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, name)
	}
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
	c.net.SetDown(name, down)
	return nil
}

// serversInDC returns alive-or-not servers in a DC sorted by load.
func (c *Cluster) serversInDC(dc simnet.DC) []*ChunkServer {
	var out []*ChunkServer
	for _, s := range c.servers {
		if s.dc == dc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := c.placed[out[i].name], c.placed[out[j].name]
		if ci != cj {
			return ci < cj
		}
		return out[i].name < out[j].name
	})
	return out
}

// CreateVolume provisions an empty volume homed in dc. Each DN owns one
// volume (§II-A: "Each DN has one volume").
func (c *Cluster) CreateVolume(name string, dc simnet.DC) (*Volume, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.volumes[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrVolumeExists, name)
	}
	if len(c.serversInDC(dc)) < ReplicasPerChunk {
		return nil, fmt.Errorf("%w: need %d in %s", ErrNoServers, ReplicasPerChunk, dc)
	}
	v := &Volume{name: name, dc: dc, cluster: c}
	c.volumes[name] = v
	return v, nil
}

// Volume looks up an existing volume; RO nodes attach to the RW node's
// volume this way.
func (c *Cluster) Volume(name string) (*Volume, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.volumes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVolume, name)
	}
	return v, nil
}

// ChunkSize returns the configured chunk size.
func (c *Cluster) ChunkSize() int64 { return c.chunkSize }
