// Package dn implements the Database Node layer of PolarDB-X: a PolarDB
// instance per datacenter consisting of one RW node (storage engine +
// HLC clock + redo log) and any number of RO replicas kept in sync by
// redo shipping (§II-C). Instances in different datacenters form a Paxos
// group replicating the redo stream (§III); the group leader's RW serves
// writes, and every instance can host RO nodes for local reads.
//
// The CN layer talks to DN instances over simnet using the request types
// in this file: snapshot reads (batched point reads and range scans),
// served by leaders and RO replicas alike with no branch, and transaction
// branches, opened by a transaction's first write or in-branch read to a
// DN and finished by prepare/commit/abort per §IV's 2PC flow.
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

// MultiGetReq reads many rows in a single round trip — the CN fast path
// for multi-point statements (sysbench's 10 point reads pay one RPC per
// touched DN instead of one per key).
//
// TxnID 0 is a snapshot read (HLC-SI steps 2–3): any node of the group,
// the leader or an RO replica, folds SnapshotTS into its clock and
// answers at it with no branch. A replica first waits until it has
// applied redo up to MinLSN (session consistency, §II-C); the leader
// holds every committed write and ignores it. Any other TxnID reads
// through that transaction's branch on the leader, opening it at
// SnapshotTS on first contact, so the transaction sees its own writes.
type MultiGetReq struct {
	TxnID      uint64
	SnapshotTS hlc.Timestamp
	MinLSN     wal.LSN
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
// trip (multi-row INSERT and secondary-index maintenance batching). It
// carries SnapshotTS and opens the branch on first contact; a write with
// no transaction (TxnID 0) is refused.
// Items are applied in order; the first failure aborts the request (the
// CN then aborts the whole transaction branch).
type MultiWriteReq struct {
	TxnID      uint64
	SnapshotTS hlc.Timestamp
	Writes     []WriteItem
}

// ScanReq is a pushdown range scan, read like MultiGetReq: TxnID 0 at
// SnapshotTS on the leader or a replica (after MinLSN), otherwise
// through the transaction's branch on the leader. Limit <= 0 means
// unbounded.
type ScanReq struct {
	TxnID      uint64
	SnapshotTS hlc.Timestamp
	MinLSN     wal.LSN
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
	// UseColumnIndex executes the scan against a replica's in-memory
	// column index when it keeps one for the table (§VI-E); elsewhere the
	// row store answers.
	UseColumnIndex bool
	// Aggregate, when non-nil, pushes partial aggregation down to the
	// column index (§VI-E: "the first phase of aggregation is
	// offloaded"). A node with no column index for the table refuses the
	// request (ErrNoColumnIndex) rather than return raw rows.
	Aggregate *PushAgg
	// WantBatch asks for a columnar response (ScanResp.Batch): row-store
	// scans columnarize once at the source, column-index scans answer
	// zero-copy from their vectors. Used by the CN's vectorized executor.
	WantBatch bool
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
