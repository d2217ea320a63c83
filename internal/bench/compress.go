// Compression experiment: the three legs of the storage-compression
// stack measured together. (1) Column-index footprint against the
// logical row bytes it indexes, and scan throughput, under the adaptive
// dictionary/RLE/bit-packed encodings with execution directly on the
// encoded form (§VI-E scaled — the same memory holds a several-times-
// larger column index). (2) Paxos log shipping with block-compressed
// frame payloads (leader compresses once per batch, followers decompress
// before append). (3) PolarFS chunk replication, where one compression
// pays for all three replica shipments. `make bench-compress` writes
// BENCH_compress.json as the standing record.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colindex"
	"repro/internal/hlc"
	"repro/internal/paxos"
	"repro/internal/polarfs"
	"repro/internal/simnet"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// CompressOptions parameterizes RunCompress. Zero values pick the
// standing configuration used by `make bench-compress`.
type CompressOptions struct {
	// Rows in the lineitem-shaped column index.
	Rows int
	// Reps per scan-throughput measurement (best-of).
	Reps int
	// WALDuration is the measured window for the log-shipping leg.
	WALDuration time.Duration
	// FSWriteKB is the amount of page data written through PolarFS, in KB.
	FSWriteKB int
}

func (o CompressOptions) withDefaults() CompressOptions {
	if o.Rows <= 0 {
		o.Rows = 200000
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.WALDuration <= 0 {
		o.WALDuration = time.Second
	}
	if o.FSWriteKB <= 0 {
		o.FSWriteKB = 4096
	}
	return o
}

// CompressColindex is the column-store leg: resident footprint of the
// index against the logical bytes of the rows it holds (their row-store
// encoding, i.e. the redo payloads it was built from), and scan
// throughput over the Fig. 10 query shapes (Q6-style filter, Q1-style
// grouped aggregation, dictionary point filter) in rows visited.
type CompressColindex struct {
	Rows         int     `json:"rows"`
	LogicalBytes int     `json:"logical_bytes"`
	EncodedBytes int     `json:"encoded_bytes"`
	Ratio        float64 `json:"footprint_ratio"`
	ScanMrowsS   float64 `json:"scan_mrows_s"`
	EncodedScans int64   `json:"encoded_scans"`
	ScansTotal   int64   `json:"scans_total"`
}

// CompressWAL is the log-shipping leg: logical redo bytes the leader
// had to replicate vs frame-payload bytes that crossed the wire.
type CompressWAL struct {
	Commits   int64   `json:"commits"`
	BytesRaw  int64   `json:"bytes_shipped_raw"`
	BytesWire int64   `json:"bytes_shipped_wire"`
	Ratio     float64 `json:"compress_ratio"`
}

// CompressFS is the chunk-replication leg: logical bytes × replicas vs
// payload bytes × replicas actually moved.
type CompressFS struct {
	BytesRaw  int64   `json:"bytes_replicated_raw"`
	BytesWire int64   `json:"bytes_replicated_wire"`
	Ratio     float64 `json:"compress_ratio"`
}

// CompressResult is the full experiment, serialized to
// BENCH_compress.json.
type CompressResult struct {
	Colindex CompressColindex `json:"colindex"`
	WAL      CompressWAL      `json:"wal"`
	PolarFS  CompressFS       `json:"polarfs"`
}

// lineitemSchema is a lineitem-shaped table: a unique row id, three
// bit-packable integers (quantity 1-50, partkey, shipdate as YYYYMMDD),
// one float kept raw, and four low-cardinality strings that dictionary-
// encode (returnflag/linestatus/shipmode/shipinstruct).
func lineitemSchema() *types.Schema {
	return types.NewSchema("lineitem_c", []types.Column{
		{Name: "l_rowid", Kind: types.KindInt},
		{Name: "l_partkey", Kind: types.KindInt},
		{Name: "l_quantity", Kind: types.KindInt},
		{Name: "l_extendedprice", Kind: types.KindFloat},
		{Name: "l_shipdate", Kind: types.KindInt},
		{Name: "l_returnflag", Kind: types.KindString},
		{Name: "l_linestatus", Kind: types.KindString},
		{Name: "l_shipmode", Kind: types.KindString},
		{Name: "l_shipinstruct", Kind: types.KindString},
	}, []int{0})
}

var (
	returnflags   = []string{"R", "A", "N"}
	linestatuses  = []string{"O", "F"}
	shipmodes     = []string{"TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "REG AIR", "FOB"}
	shipinstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
)

func lineitemRow(rng *rand.Rand, i int) types.Row {
	return types.Row{
		types.Int(int64(i)),
		types.Int(rng.Int63n(200000)),
		types.Int(1 + rng.Int63n(50)),
		types.Float(900 + rng.Float64()*104000),
		types.Int(19920101 + rng.Int63n(7)*10000 + rng.Int63n(12)*100 + rng.Int63n(28)),
		types.Str(returnflags[rng.Intn(len(returnflags))]),
		types.Str(linestatuses[rng.Intn(len(linestatuses))]),
		types.Str(shipmodes[rng.Intn(len(shipmodes))]),
		types.Str(shipinstructs[rng.Intn(len(shipinstructs))]),
	}
}

func col(name string, idx int) sql.Expr { return &sql.ColumnRef{Column: name, Index: idx} }
func lit(v types.Value) sql.Expr        { return &sql.Literal{Val: v} }
func binop(op string, l, r sql.Expr) sql.Expr {
	return &sql.BinaryOp{Op: op, L: l, R: r}
}

// compressScans is how many scans compressQueries runs.
const compressScans = 3

// compressQueries runs the Fig. 10 scan shapes against the index.
func compressQueries(ix *colindex.Index, snapshot hlc.Timestamp) error {
	// Q6 shape: date-range + quantity filter, project the price column.
	q6 := binop("AND",
		binop("AND",
			binop(">=", col("l_shipdate", 4), lit(types.Int(19940101))),
			binop("<", col("l_shipdate", 4), lit(types.Int(19950101)))),
		binop("<", col("l_quantity", 2), lit(types.Int(24))))
	if err := scanRows(ix, snapshot, q6, []int{3}); err != nil {
		return err
	}
	// Q1 shape: grouped aggregation pushed into the index.
	q1 := binop("<=", col("l_shipdate", 4), lit(types.Int(19980902)))
	if _, err := ix.AggScan(snapshot, q1, []int{5, 6}, []colindex.AggSpec{
		{Func: "SUM", Col: 2},
		{Func: "SUM", Col: 3},
		{Func: "COUNT", Star: true},
	}); err != nil {
		return err
	}
	// Dictionary point filter: equality on a low-cardinality string.
	qd := binop("=", col("l_shipmode", 7), lit(types.Str("MAIL")))
	return scanRows(ix, snapshot, qd, []int{0})
}

// scanRows runs a filtered scan and materializes its rows, the RO's
// row-form answer.
func scanRows(ix *colindex.Index, snapshot hlc.Timestamp, filter sql.Expr, projection []int) error {
	b, err := ix.ScanBatch(snapshot, filter, projection, 0)
	if err != nil {
		return err
	}
	b.AppendRows(nil)
	return nil
}

// runCompressColindex builds the index from a redo stream and measures
// footprint and scan throughput.
func runCompressColindex(rows, reps int) (CompressColindex, error) {
	var out CompressColindex
	out.Rows = rows
	clk := hlc.NewClock(nil)
	eng := storage.NewEngine()
	if _, err := eng.CreateTable(1, 0, lineitemSchema()); err != nil {
		return out, err
	}
	ix := colindex.New(1, lineitemSchema())
	builder := colindex.NewBuilder(ix)

	rng := rand.New(rand.NewSource(11))
	const txnRows = 2000
	for lo := 0; lo < rows; lo += txnRows {
		txn := eng.Begin(clk.Now())
		for i := lo; i < lo+txnRows && i < rows; i++ {
			if err := eng.Insert(txn, 1, lineitemRow(rng, i)); err != nil {
				return out, err
			}
		}
		if err := eng.Commit(txn, clk.Advance()); err != nil {
			return out, err
		}
		redo := txn.Redo()
		for _, rec := range redo {
			out.LogicalBytes += len(rec.Payload)
		}
		if err := builder.Apply(redo); err != nil {
			return out, err
		}
	}
	out.EncodedBytes = ix.FootprintBytes()
	if out.EncodedBytes > 0 {
		out.Ratio = float64(out.LogicalBytes) / float64(out.EncodedBytes)
	}

	// Throughput: best-of-reps wall time over the query set.
	snapshot := clk.Now()
	colindex.ResetScanStats()
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := compressQueries(ix, snapshot); err != nil {
			return out, err
		}
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
	}
	st := colindex.ScanStats()
	out.EncodedScans = st.EncodedScans
	out.ScansTotal = st.Scans
	out.ScanMrowsS = float64(rows) * compressScans / 1e6 / best.Seconds()
	return out, nil
}

// runCompressWAL drives a 3-DC Paxos group with row-shaped payloads and
// reports the shipped raw/wire byte counts from the leader.
func runCompressWAL(duration time.Duration) (CompressWAL, error) {
	var out CompressWAL
	topo, _ := commitTopology()
	net := simnet.New(topo)
	members := []paxos.Member{
		{Name: "dn1", DC: simnet.DC1},
		{Name: "dn2", DC: simnet.DC2},
		{Name: "dn3", DC: simnet.DC3},
	}
	nodes := make([]*paxos.Node, 0, len(members))
	for _, m := range members {
		n, err := paxos.NewNode(paxos.Config{
			Group:             "g1",
			Self:              m.Name,
			Members:           members,
			Net:               net,
			HeartbeatEvery:    time.Millisecond,
			ElectionTimeout:   5 * time.Second,
			Pipelined:         true,
			GroupCommitWindow: 300 * time.Microsecond,
			FlushDelay:        500 * time.Microsecond,
			Seed:              7,
		})
		if err != nil {
			return out, err
		}
		nodes = append(nodes, n)
	}
	nodes[0].Bootstrap()
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	leader := nodes[0]

	const committers = 16
	deadline := time.Now().Add(duration)
	var commits atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				// Row-shaped payload: named fields, enum-ish values,
				// padding — the compressibility of real redo.
				payload := []byte(fmt.Sprintf(
					"cust=%06d|status=ACTIVE|region=us-east-1|mode=%s|note=%s",
					i%100000, shipmodes[i%len(shipmodes)], shipinstructs[i%len(shipinstructs)]))
				rec := wal.Record{Type: wal.RecInsert, TableID: 1, TxnID: uint64(c),
					Key: []byte(fmt.Sprintf("c%d-%d", c, i)), Payload: payload}
				if _, err := leader.ProposeAndWait(rec); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				commits.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return out, err
	}
	m := leader.MetricsSnapshot()
	out.Commits = commits.Load()
	out.BytesRaw = m.BytesShippedRaw
	out.BytesWire = m.BytesShippedWire
	out.Ratio = m.CompressRatio()
	return out, nil
}

// runCompressFS writes page-shaped data through a 3-replica PolarFS
// volume and reports replication traffic.
func runCompressFS(writeKB int) (CompressFS, error) {
	var out CompressFS
	net := simnet.New(simnet.ZeroTopology())
	net.Register("dn1", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	fs := polarfs.NewCluster(net, 0)
	for i := 0; i < polarfs.ReplicasPerChunk; i++ {
		if _, err := fs.AddServer(fmt.Sprintf("sn%d", i), simnet.DC1); err != nil {
			return out, err
		}
	}
	vol, err := fs.CreateVolume("vol-dn1", simnet.DC1)
	if err != nil {
		return out, err
	}
	// 16 KB pages of B-tree-like content: sorted keys, repeated value
	// prefixes, zero padding in the free space — what page flushes look
	// like, not random bytes.
	rng := rand.New(rand.NewSource(23))
	page := make([]byte, 16*1024)
	var off int64
	for written := 0; written < writeKB*1024; written += len(page) {
		for i := range page {
			page[i] = 0
		}
		p := page[:0]
		base := rng.Intn(1 << 20)
		for len(p) < 12*1024 {
			p = append(p, fmt.Sprintf("key%08d|val=row-payload-%04d|", base+len(p)/32, rng.Intn(100))...)
		}
		if err := vol.WriteAt("dn1", off, page); err != nil {
			return out, err
		}
		off += int64(len(page))
	}
	raw, wire := fs.ReplicationBytes()
	out.BytesRaw, out.BytesWire = raw, wire
	if wire > 0 {
		out.Ratio = float64(raw) / float64(wire)
	}
	return out, nil
}

// RunCompress executes all three legs.
func RunCompress(opts CompressOptions) (*CompressResult, error) {
	opts = opts.withDefaults()
	res := &CompressResult{}
	var err error
	if res.Colindex, err = runCompressColindex(opts.Rows, opts.Reps); err != nil {
		return nil, fmt.Errorf("colindex leg: %w", err)
	}
	if res.WAL, err = runCompressWAL(opts.WALDuration); err != nil {
		return nil, fmt.Errorf("wal leg: %w", err)
	}
	if res.PolarFS, err = runCompressFS(opts.FSWriteKB); err != nil {
		return nil, fmt.Errorf("polarfs leg: %w", err)
	}
	return res, nil
}

// Print renders a paper-style table.
func (r *CompressResult) Print(w io.Writer) {
	c := r.Colindex
	fmt.Fprintf(w, "column index, %d lineitem-shaped rows\n", c.Rows)
	fmt.Fprintf(w, "  footprint  rows %.1f MB  index %.1f MB  ratio %.2fx\n",
		float64(c.LogicalBytes)/1e6, float64(c.EncodedBytes)/1e6, c.Ratio)
	fmt.Fprintf(w, "  scan       %.1f Mrows/s (%d/%d scans on encoded vectors)\n",
		c.ScanMrowsS, c.EncodedScans, c.ScansTotal)
	fmt.Fprintf(w, "paxos log shipping, 3 DCs: %d commits, %.1f MB raw -> %.1f MB wire, ratio %.2fx\n",
		r.WAL.Commits, float64(r.WAL.BytesRaw)/1e6, float64(r.WAL.BytesWire)/1e6, r.WAL.Ratio)
	fmt.Fprintf(w, "polarfs replication, 3 replicas: %.1f MB raw -> %.1f MB wire, ratio %.2fx\n",
		float64(r.PolarFS.BytesRaw)/1e6, float64(r.PolarFS.BytesWire)/1e6, r.PolarFS.Ratio)
}

// WriteJSON writes the standing benchmark record.
func (r *CompressResult) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
