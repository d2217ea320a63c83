// Package colindex implements PolarDB-X's in-memory column index
// (paper §VI-E): a columnar representation of selected tables maintained
// on AP-serving RO nodes by consuming the redo log. Records carry the
// originating transaction's commit timestamp, so scans run on a snapshot
// consistent with the row store (the trx_id/read-view reuse the paper
// describes); maintenance may be delayed and batched, in which case the
// index version lags the row store and AP queries run at the index's
// snapshot.
//
// Typed column vectors (int64/float64/string) make large scans,
// filters and the offloaded first aggregation phase dramatically cheaper
// than MVCC row-store traversal — the source of the Fig. 10 column-index
// speedups.
package colindex

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Errors.
var (
	ErrUnknownAgg = errors.New("colindex: unknown aggregate")
	ErrBadColumn  = errors.New("colindex: column out of range")
)

// Encoding policy knobs.
const (
	// DecideRows is how many rows a column accumulates before the index
	// picks its encoding (enough to see the value distribution, small
	// enough that the one-time re-encode is trivial).
	DecideRows = 32
	// dictMaxCard bounds dictionary growth; past it the column decodes
	// back to raw storage (the encoding stopped paying for itself).
	dictMaxCard = 4096
)

// colVec is one column's storage: a typed vector whose payload may be
// raw or encoded (dictionary / run-length / bit-packed, see
// internal/vector). Values are coerced to the schema kind on append, so
// the vector never degrades to boxed storage and scans can rely on the
// payload class.
type colVec struct {
	kind types.Kind
	data *vector.Vector
	// decided is set once the encoding choice has been made (at
	// DecideRows); afterwards only the degrade checks run.
	decided bool
	// szBytes caches data.SizeBytes() (O(#strings) to recompute), updated
	// geometrically on flush and exactly in FootprintBytes. szLen is the
	// vector length the cache was taken at. Written under the index write
	// lock only; readers consume it under the read lock.
	szLen   int
	szBytes int
}

func newColVec(k types.Kind) *colVec {
	return &colVec{kind: k, data: vector.New(storeKind(k), 0)}
}

// storeKind maps a schema kind to its vector storage kind: the numeric
// and string kinds store natively, everything else stores its string
// form (matching the row materialization below).
func storeKind(k types.Kind) types.Kind {
	switch k {
	case types.KindInt, types.KindBool, types.KindFloat, types.KindString:
		return k
	}
	return types.KindString
}

// coerce converts an incoming value to the column's storage class, with
// the same AsInt/AsFloat/AsString semantics the index has always had.
func coerce(k types.Kind, val types.Value) types.Value {
	if val.IsNull() {
		return val
	}
	switch k {
	case types.KindInt:
		return types.Int(val.AsInt())
	case types.KindBool:
		return types.Bool(val.AsInt() != 0)
	case types.KindFloat:
		return types.Float(val.AsFloat())
	default:
		return types.Str(val.AsString())
	}
}

func (v *colVec) append(val types.Value) {
	v.data.Append(coerce(v.kind, val))
}

func (v *colVec) value(i int) types.Value { return v.data.Value(i) }

// adapt runs the per-flush encoding policy: pick an encoding once the
// column has seen DecideRows values, then watch for distributions that
// stopped fitting and degrade back to raw storage.
func (v *colVec) adapt() {
	n := v.data.Len()
	if n < DecideRows {
		return
	}
	if !v.decided {
		v.decided = true
		v.data.EncodeAs(v.choose())
		return
	}
	if d := v.data.Dict; d != nil && (d.Card() > dictMaxCard || d.Card()*2 > n) {
		v.data.Decode()
	}
	if r := v.data.RLE; r != nil && n >= 4*DecideRows && r.Runs() > n/2 {
		v.data.Decode()
	}
}

// choose picks the encoding from a prefix sample of the raw column:
// heavy repetition run-length encodes regardless of type; otherwise
// low-cardinality strings take a dictionary, integers bit-pack, floats
// stay raw (no light-weight float encoding pays off).
func (v *colVec) choose() vector.Encoding {
	sample := v.data.Len()
	if sample > 1024 {
		sample = 1024
	}
	runs, distinct := v.sampleStats(sample)
	if runs*8 <= sample {
		return vector.EncRLE
	}
	switch v.data.Kind {
	case types.KindString:
		if distinct*2 <= sample {
			return vector.EncDict
		}
	case types.KindInt, types.KindBool:
		return vector.EncPack
	}
	return vector.EncNone
}

// sampleStats counts value runs (all kinds) and distinct values
// (strings) over the first sample rows of the still-raw column.
func (v *colVec) sampleStats(sample int) (runs, distinct int) {
	d := v.data
	var seen map[string]struct{}
	if d.Kind == types.KindString {
		seen = make(map[string]struct{}, 64)
	}
	prevNull := false
	var prevI int64
	var prevF float64
	var prevS string
	for i := 0; i < sample; i++ {
		null := d.Nulls != nil && d.Nulls[i]
		same := i > 0 && null == prevNull
		switch d.Kind {
		case types.KindInt, types.KindBool:
			same = same && (null || d.Ints[i] == prevI)
			prevI = d.Ints[i]
		case types.KindFloat:
			same = same && (null || d.Floats[i] == prevF)
			prevF = d.Floats[i]
		default:
			same = same && (null || d.Strs[i] == prevS)
			prevS = d.Strs[i]
			if seen != nil && !null {
				seen[d.Strs[i]] = struct{}{}
			}
		}
		prevNull = null
		if !same {
			runs++
		}
	}
	return runs, len(seen)
}

// Index is the column index of one table.
type Index struct {
	TableID uint32
	Schema  *types.Schema

	mu sync.RWMutex
	// cols[i] is the vector for schema column i; vecs[i] is its data,
	// the form the scan filter's kernels take.
	cols []*colVec
	vecs []*vector.Vector
	// vis bounds each row version's visibility window (run-length
	// created + sparse deleted).
	vis visibility
	// latest maps encoded PK -> newest row position (for update/delete).
	latest map[string]int
	// encodedScans/scanBytes mirror the package ScanStats into an obs
	// registry when attached (nil-safe).
	encodedScans *obs.Counter
	scanBytes    *obs.Counter
	// version is the commit timestamp of the newest applied transaction;
	// reads above it would miss data, so queries clamp to it (§VI-E "AP
	// queries run on the version of snapshot subject to the column
	// index").
	version hlc.Timestamp

	// staging delays maintenance: records buffer here until BatchSize
	// transactions accumulate (or Flush is called).
	staging   []stagedTxn
	BatchSize int
}

type stagedTxn struct {
	commitTS hlc.Timestamp
	recs     []wal.Record
}

// New creates an empty index for a table. Each column's encoding adapts
// to its data (see colVec.adapt); columns that do not compress stay raw.
func New(tableID uint32, schema *types.Schema) *Index {
	idx := &Index{TableID: tableID, Schema: schema, latest: make(map[string]int), BatchSize: 1}
	for _, c := range schema.Columns {
		cv := newColVec(c.Kind)
		idx.cols = append(idx.cols, cv)
		idx.vecs = append(idx.vecs, cv.data)
	}
	return idx
}

// SetMetrics attaches obs counters for encoded scans and bytes scanned
// (nil registry = metrics off).
func (x *Index) SetMetrics(reg *obs.Registry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.encodedScans = reg.Counter("colindex.encoded_scans")
	x.scanBytes = reg.Counter("colindex.scan_bytes")
}

// FootprintBytes returns the exact resident size of column payloads and
// visibility metadata, refreshing the per-column size caches.
func (x *Index) FootprintBytes() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	total := x.vis.sizeBytes()
	for _, c := range x.cols {
		c.szBytes = c.data.SizeBytes()
		c.szLen = c.data.Len()
		total += c.szBytes
	}
	return total
}

// Version returns the index's snapshot version (lags the row store when
// batching).
func (x *Index) Version() hlc.Timestamp {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.version
}

// Rows returns the number of live rows at the index version.
func (x *Index) Rows() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n := 0
	for i := 0; i < x.vis.len(); i++ {
		if x.vis.deletedAt(i).IsZero() {
			n++
		}
	}
	return n
}

// Builder consumes a redo stream, groups records per transaction and
// stages committed transactions into the indexes it maintains.
type Builder struct {
	mu      sync.Mutex
	indexes map[uint32]*Index
	pending map[uint64][]wal.Record
}

// NewBuilder creates a Builder over a set of indexes.
func NewBuilder(indexes ...*Index) *Builder {
	b := &Builder{indexes: make(map[uint32]*Index), pending: make(map[uint64][]wal.Record)}
	for _, ix := range indexes {
		b.indexes[ix.TableID] = ix
	}
	return b
}

// Add registers another index with the builder (enabling tables
// incrementally on a running replica).
func (b *Builder) Add(ix *Index) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.indexes[ix.TableID] = ix
}

// Index returns the builder's index for a table, if maintained.
func (b *Builder) Index(tableID uint32) (*Index, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ix, ok := b.indexes[tableID]
	return ix, ok
}

// Apply consumes redo records (the log subscription of §VI-E: "logical
// operations on the indexed column are captured from the log").
func (b *Builder) Apply(recs []wal.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			if _, ok := b.indexes[rec.TableID]; ok {
				b.pending[rec.TxnID] = append(b.pending[rec.TxnID], rec)
			}
		case wal.RecCommit:
			rows := b.pending[rec.TxnID]
			delete(b.pending, rec.TxnID)
			if len(rows) == 0 {
				continue
			}
			ts, err := storage.DecodeTS(rec.Payload)
			if err != nil {
				return fmt.Errorf("colindex: commit of txn %d: %w", rec.TxnID, err)
			}
			byTable := make(map[uint32][]wal.Record)
			for _, r := range rows {
				byTable[r.TableID] = append(byTable[r.TableID], r)
			}
			for tid, trecs := range byTable {
				if err := b.indexes[tid].stage(ts, trecs); err != nil {
					return err
				}
			}
		case wal.RecAbort, wal.RecResolveAbort:
			delete(b.pending, rec.TxnID)
		}
	}
	return nil
}

// stage buffers one committed transaction and applies batches when the
// staging buffer is full.
func (x *Index) stage(ts hlc.Timestamp, recs []wal.Record) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.staging = append(x.staging, stagedTxn{commitTS: ts, recs: recs})
	if len(x.staging) >= x.BatchSize {
		return x.flushLocked()
	}
	return nil
}

// Flush applies all staged transactions immediately.
func (x *Index) Flush() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.flushLocked()
}

func (x *Index) flushLocked() error {
	for _, txn := range x.staging {
		for _, rec := range txn.recs {
			switch rec.Type {
			case wal.RecInsert, wal.RecUpdate:
				row, err := types.DecodeRow(rec.Payload)
				if err != nil {
					return fmt.Errorf("colindex: decode row: %w", err)
				}
				key := string(rec.Key)
				if old, ok := x.latest[key]; ok && x.vis.deletedAt(old).IsZero() {
					x.vis.kill(old, txn.commitTS)
				}
				pos := x.vis.len()
				for i, v := range row {
					x.cols[i].append(v)
				}
				x.vis.append(txn.commitTS)
				x.latest[key] = pos
			case wal.RecDelete:
				key := string(rec.Key)
				if old, ok := x.latest[key]; ok && x.vis.deletedAt(old).IsZero() {
					x.vis.kill(old, txn.commitTS)
				}
			}
		}
		if txn.commitTS > x.version {
			x.version = txn.commitTS
		}
	}
	x.staging = x.staging[:0]
	for _, c := range x.cols {
		c.adapt()
	}
	// Refresh the size caches geometrically so repeated small flushes
	// stay O(1) amortized per row.
	for _, c := range x.cols {
		if n := c.data.Len(); n >= c.szLen+c.szLen/4 || (c.szBytes == 0 && n > 0) {
			c.szBytes = c.data.SizeBytes()
			c.szLen = n
		}
	}
	return nil
}

// Pending reports staged-but-unapplied transactions (lag metric).
func (x *Index) Pending() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.staging)
}
