// Package dn implements the Database Node layer of PolarDB-X: a PolarDB
// instance per datacenter consisting of one RW node (storage engine +
// HLC clock + redo log) and any number of RO replicas kept in sync by
// redo shipping (§II-C). Instances in different datacenters form a Paxos
// group replicating the redo stream (§III); the group leader's RW serves
// writes, and every instance can host RO nodes for local reads.
//
// The CN layer talks to DN instances over simnet using the request types
// in this file: transaction branches (batched reads and writes and range
// scans, each carrying the snapshot so the first one to arrive opens the
// branch, then prepare/commit/abort per §IV's 2PC flow) and RO reads
// with session consistency.
package dn

import (
	"encoding/json"
	"time"

	"repro/internal/hlc"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Deadlined wraps any DN request with the issuing statement's absolute
// deadline — the RPC metadata leg of deadline propagation. The handler
// unwraps it at entry: an already-expired request is refused before any
// work (counted in deadline.exceeded), and prepare/commit durability
// waits are bounded by the remaining time so a timed-out statement
// releases its request goroutine instead of wedging it on a slow
// quorum. Requests arriving bare (no envelope) behave exactly as
// before — senders without a deadline pay nothing.
type Deadlined struct {
	Deadline time.Time
	Req      any
}

// WithDeadline wraps req when deadline is non-zero; a zero deadline
// returns req unchanged so the no-timeout path stays byte-identical.
func WithDeadline(req any, deadline time.Time) any {
	if deadline.IsZero() {
		return req
	}
	return Deadlined{Deadline: deadline, Req: req}
}

// WriteOp selects the mutation kind in a WriteItem.
type WriteOp uint8

// Write operations.
const (
	OpInsert WriteOp = iota
	OpUpdate
	OpDelete
)

// ReadResp returns the row, if visible.
type ReadResp struct {
	Row types.Row
	OK  bool
}

// PointGet is one key of a batched multi-get: a physical table and an
// encoded primary key.
type PointGet struct {
	Table uint32
	PK    []byte
}

// MultiGetReq reads many rows of one branch in a single round trip —
// the CN fast path for multi-point statements (sysbench's 10 point
// reads pay one RPC per touched DN instead of one per key). Carrying
// SnapshotTS implements HLC-SI steps 2–3: whichever in-branch request
// reaches the DN first opens the branch, folding the snapshot into the
// DN's clock (ClockUpdate) so its later prepare_ts exceeds it.
type MultiGetReq struct {
	TxnID      uint64
	SnapshotTS hlc.Timestamp
	Gets       []PointGet
}

// MultiGetResp returns one ReadResp per requested key, in order.
type MultiGetResp struct {
	Results []ReadResp
}

// WriteItem is one mutation of a batched write.
type WriteItem struct {
	Table uint32
	Op    WriteOp
	Row   types.Row // insert/update
	PK    []byte    // delete
}

// MultiWriteReq applies many mutations of one branch in a single round
// trip (multi-row INSERT and secondary-index maintenance batching).
// Like MultiGetReq it carries SnapshotTS and opens the branch on first
// contact.
// Items are applied in order; the first failure aborts the request (the
// CN then aborts the whole transaction branch).
type MultiWriteReq struct {
	TxnID      uint64
	SnapshotTS hlc.Timestamp
	Writes     []WriteItem
}

// ROMultiGetReq is the RO-replica analogue of MultiGetReq: a batch of
// session-consistent point reads served in one round trip. The replica
// waits until it has applied redo up to MinLSN (session consistency,
// §II-C) once, then answers every key at SnapshotTS.
type ROMultiGetReq struct {
	Gets       []PointGet
	SnapshotTS hlc.Timestamp
	MinLSN     wal.LSN
}

// ScanReq is a snapshot range scan inside a branch; like MultiGetReq it
// carries SnapshotTS and opens the branch on first contact. Limit <= 0
// means unbounded.
type ScanReq struct {
	TxnID      uint64
	SnapshotTS hlc.Timestamp
	Table      uint32
	Start      []byte
	End        []byte
	Limit      int
	// Filter, when non-nil, is evaluated DN-side against each row
	// (operator pushdown, §VI-B: "push specific portions of the query
	// ... to corresponding storage nodes for near-data computing").
	// Column references must be bound to schema positions.
	Filter sql.Expr
	// Projection, when non-empty, returns only these column positions,
	// shrinking CN<->DN transfer.
	Projection []int
}

// ScanResp returns matching rows in key order. When the request set
// WantBatch, Batch carries the rows column-major instead and Rows is
// nil (simnet passes Go values, so the batch crosses "the wire" without
// a pivot back to rows).
type ScanResp struct {
	Rows  []types.Row
	Batch *vector.Batch
}

// PrepareReq is 2PC phase one: validate and persist the branch. Primary
// names the transaction's primary branch instance (the first-written
// branch, holding the authoritative commit decision); it is persisted in
// the prepare record so the branch stays resolvable if the coordinator
// vanishes.
type PrepareReq struct {
	TxnID   uint64
	Primary string
}

// PrepareResp carries the participant's prepare timestamp (ClockAdvance).
type PrepareResp struct{ PrepareTS hlc.Timestamp }

// CommitReq is 2PC phase two. For single-shard transactions the CN skips
// Prepare and sends CommitReq with CommitTS zero: the DN runs the 1PC
// fast path, choosing the commit timestamp locally.
//
// CommitPoint marks the primary branch's commit: the DN logs a durable
// RecCommitPoint decision record ahead of the commit marker, making the
// transaction's outcome recoverable. The coordinator sends the
// commit-point request alone first; only after it succeeds does it fan
// out plain CommitReqs to the other branches.
type CommitReq struct {
	TxnID       uint64
	CommitTS    hlc.Timestamp
	CommitPoint bool
}

// CommitResp reports the commit timestamp used (relevant for 1PC) and
// the redo LSN of the commit record, which the CN tracks for RO session
// consistency.
type CommitResp struct {
	CommitTS hlc.Timestamp
	LSN      wal.LSN
}

// AbortReq rolls back a branch.
type AbortReq struct{ TxnID uint64 }

// ResolveTxnReq asks a transaction's primary branch instance for the
// authoritative outcome of an in-doubt transaction. If no durable commit
// point exists, the primary writes a durable presumed-abort tombstone
// (RecResolveAbort) before answering, so a late commit-point write is
// refused and every participant converges on the same verdict.
type ResolveTxnReq struct{ TxnID uint64 }

// ResolveTxnResp is the primary's verdict: commit at CommitTS, or abort.
type ResolveTxnResp struct {
	Committed bool
	CommitTS  hlc.Timestamp
}

// ROScanReq is the scan analogue of ROMultiGetReq.
type ROScanReq struct {
	Table      uint32
	Index      string
	Start, End []byte
	Limit      int
	SnapshotTS hlc.Timestamp
	MinLSN     wal.LSN
	// Filter/Projection: DN-side pushdown, as in ScanReq.
	Filter     sql.Expr
	Projection []int
	// UseColumnIndex executes the scan against the RO's in-memory column
	// index when available (§VI-E).
	UseColumnIndex bool
	// Aggregate, when non-nil, pushes partial aggregation down to the
	// column index (§VI-E: "the first phase of aggregation is
	// offloaded").
	Aggregate *PushAgg
	// WantBatch asks for a columnar response (ScanResp.Batch): row-store
	// scans columnarize once at the source, column-index scans answer
	// zero-copy from their vectors. Used by the CN's vectorized executor.
	WantBatch bool
}

// PushAgg describes a pushed-down partial aggregation: group-by column
// positions and aggregate specs over column positions.
type PushAgg struct {
	GroupBy []int
	Aggs    []PushAggSpec
}

// PushAggSpec is one pushed aggregate. Either Col (a plain schema
// column, vectorized) or Expr (a bound scalar expression evaluated per
// qualifying row, e.g. l_extendedprice * (1 - l_discount)) supplies the
// aggregated value.
type PushAggSpec struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Col  int    // ignored when Star or Expr is set
	Expr sql.Expr
	Star bool
}

// CreateTableReq provisions a table on the instance and its replicas.
type CreateTableReq struct {
	ID     uint32
	Tenant uint32
	Schema *types.Schema
}

// CreateIndexReq provisions a local secondary index.
type CreateIndexReq struct {
	Table uint32
	Name  string
	Cols  []string
}

// StatusReq asks for instance health (role, LSNs, RO lag).
type StatusReq struct{}

// StatusResp is the health snapshot.
type StatusResp struct {
	Name     string
	IsLeader bool
	TailLSN  wal.LSN
	DLSN     wal.LSN
	ROs      []ROStatus
}

// ROStatus is one RO replica's sync state.
type ROStatus struct {
	Name       string
	AppliedLSN wal.LSN
	Evicted    bool
}

// schemaJSON is the wire form of a schema for DDL replication.
type schemaJSON struct {
	Name       string   `json:"name"`
	Cols       []string `json:"cols"`
	Kinds      []uint8  `json:"kinds"`
	PKCols     []int    `json:"pk"`
	ImplicitPK bool     `json:"implicit_pk"`
}

// EncodeSchema serializes a schema for RecDDL payloads.
func EncodeSchema(s *types.Schema) []byte {
	j := schemaJSON{Name: s.Name, PKCols: s.PKCols, ImplicitPK: s.ImplicitPK}
	for _, c := range s.Columns {
		j.Cols = append(j.Cols, c.Name)
		j.Kinds = append(j.Kinds, uint8(c.Kind))
	}
	b, err := json.Marshal(j)
	if err != nil {
		panic("dn: schema marshal: " + err.Error()) // schemas are always marshalable
	}
	return b
}

// DecodeSchema parses a RecDDL schema payload.
func DecodeSchema(b []byte) (*types.Schema, error) {
	var j schemaJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	s := &types.Schema{Name: j.Name, PKCols: j.PKCols, ImplicitPK: j.ImplicitPK}
	for i, name := range j.Cols {
		s.Columns = append(s.Columns, types.Column{Name: name, Kind: types.Kind(j.Kinds[i])})
	}
	return s, nil
}
