// Package gen makes every input of the benchmark from a seed: table
// contents, key choice, the ad-hoc statement family and the TPC-C data
// set. The same seed gives the same inputs; the program under test only
// ever receives the SQL text (or, in the layer pass, the typed rows)
// produced here.
package gen

import (
	"math/rand"
	"strconv"

	"repro/internal/types"
)

const payloadAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// mix is the splitmix64 finalizer: row contents are a pure function of
// (seed, id), so any row can be recomputed when a result is verified.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func payload(h uint64, n int) string {
	b := make([]byte, n)
	for i := range b {
		if i%8 == 0 {
			h = mix(h)
		}
		b[i] = payloadAlphabet[(h>>(8*uint(i%8))&0xff)%uint64(len(payloadAlphabet))]
	}
	return string(b)
}

// payloadIs reports whether s is payload(h, len(s)), without allocating.
func payloadIs(h uint64, s string) bool {
	for i := 0; i < len(s); i++ {
		if i%8 == 0 {
			h = mix(h)
		}
		if s[i] != payloadAlphabet[(h>>(8*uint(i%8))&0xff)%uint64(len(payloadAlphabet))] {
			return false
		}
	}
	return true
}

func randPayload(rng *rand.Rand, n int) string { return payload(rng.Uint64(), n) }

// --- sbtest ---------------------------------------------------------------

// SbtestTable is the sysbench table name.
const SbtestTable = "sbtest"

// Sbtest describes the sysbench table: Rows rows with ids 0..Rows-1.
type Sbtest struct {
	Seed int64
	Rows int
}

func (t Sbtest) h(id int64, salt uint64) uint64 {
	return mix(mix(uint64(t.Seed)^salt) ^ uint64(id))
}

// K is row id's initial k value.
func (t Sbtest) K(id int64) int64 { return int64(t.h(id, 1) % uint64(t.Rows)) }

// C is row id's initial 32-character c payload.
func (t Sbtest) C(id int64) string { return payload(t.h(id, 2), 32) }

// CheckC reports whether got is row id's initial c payload; it is the
// allocation-free form of got == t.C(id) for the measured loop.
func (t Sbtest) CheckC(id int64, got string) bool {
	return len(got) == 32 && payloadIs(t.h(id, 2), got)
}

// Pad is row id's 16-character pad payload.
func (t Sbtest) Pad(id int64) string { return payload(t.h(id, 3), 16) }

// Row is row id as typed values (id, k, c, pad).
func (t Sbtest) Row(id int64) types.Row {
	return types.Row{types.Int(id), types.Int(t.K(id)), types.Str(t.C(id)), types.Str(t.Pad(id))}
}

// Schema is the table's schema, for the layer pass's standalone engines.
func (t Sbtest) Schema() *types.Schema {
	return types.NewSchema(SbtestTable, []types.Column{
		{Name: "id", Kind: types.KindInt}, {Name: "k", Kind: types.KindInt},
		{Name: "c", Kind: types.KindString}, {Name: "pad", Kind: types.KindString},
	}, []int{0})
}

// CreateSQL is the CREATE TABLE statement.
func (t Sbtest) CreateSQL(partitions int) string {
	return "CREATE TABLE " + SbtestTable +
		" (id BIGINT, k BIGINT, c VARCHAR(120), pad VARCHAR(60), PRIMARY KEY(id)) PARTITIONS " +
		strconv.Itoa(partitions)
}

// InsertSQL is one multi-row INSERT covering ids [lo, hi).
func (t Sbtest) InsertSQL(lo, hi int64) string {
	b := make([]byte, 0, 96*(hi-lo)+64)
	b = append(b, "INSERT INTO "+SbtestTable+" (id, k, c, pad) VALUES "...)
	for id := lo; id < hi; id++ {
		if id > lo {
			b = append(b, ", "...)
		}
		b = appendSbtestValues(b, id, t.K(id), t.C(id), t.Pad(id))
	}
	return string(b)
}

func appendSbtestValues(b []byte, id, k int64, c, pad string) []byte {
	b = append(b, '(')
	b = strconv.AppendInt(b, id, 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, k, 10)
	b = append(b, ", '"...)
	b = append(b, c...)
	b = append(b, "', '"...)
	b = append(b, pad...)
	return append(b, "')"...)
}

// keyPicker draws ids of one parity, so that two connections with
// different parities never touch the same row.
type keyPicker struct {
	rng    *rand.Rand
	rows   int
	parity int
}

func (p *keyPicker) id() int64 {
	return int64(2*p.rng.Intn(p.rows/2) + p.parity)
}

// distinct fills dst with distinct ids.
func (p *keyPicker) distinct(dst []int64) {
	for i := range dst {
	again:
		dst[i] = p.id()
		for _, prev := range dst[:i] {
			if prev == dst[i] {
				goto again
			}
		}
	}
}

// --- oltp_read statement mix ----------------------------------------------

// ReadKind is a statement class of the oltp_read mix.
type ReadKind int

// The statement classes, with their share of the mix.
const (
	ReadPoint ReadKind = iota // 75 %: PK point select
	ReadIn                    // 10 %: IN list of 10 random keys
	ReadRange                 // 10 %: 20 consecutive rows
	ReadAdHoc                 //  5 %: one of AdHocShapes fingerprints
)

// Sizes of the oltp_read statement classes.
const (
	InListKeys  = 10
	RangeRows   = 20
	AdHocShapes = 2048
	adHocLimit  = 3
)

// ReadOp is one generated statement and what its result must be.
type ReadOp struct {
	Kind ReadKind
	SQL  string
	// IDs are the ids the result must hold: in this order when Ordered,
	// as a set otherwise. With Limit >= 0 and no order the result is any
	// min(Limit, len(IDs)) of them.
	IDs     []int64
	Ordered bool
	Limit   int
	// IDCol and CCol are the result columns holding id and c. IDCol is -1
	// for a statement that does not project id; it reads a single key.
	IDCol, CCol int
}

// ReadGen generates the oltp_read mix for one connection.
type ReadGen struct {
	t    Sbtest
	keys keyPicker
	op   ReadOp
	buf  []byte
	ids  [RangeRows]int64
}

// NewReadGen makes the generator of the connection with the given
// parity (0 or 1).
func NewReadGen(t Sbtest, seed int64, parity int) *ReadGen {
	rng := rand.New(rand.NewSource(seed ^ int64(mix(uint64(parity)+101))))
	return &ReadGen{t: t, keys: keyPicker{rng: rng, rows: t.Rows, parity: parity}}
}

// Key draws one key of the connection's half of the table.
func (g *ReadGen) Key() int64 { return g.keys.id() }

// Next returns the next statement. The returned value is reused by the
// following call.
func (g *ReadGen) Next() *ReadOp {
	rng := g.keys.rng
	op := &g.op
	op.Ordered, op.Limit, op.IDCol, op.CCol = false, -1, 0, 1
	b := g.buf[:0]
	switch r := rng.Intn(100); {
	case r < 75:
		op.Kind = ReadPoint
		g.ids[0] = g.keys.id()
		op.IDs = g.ids[:1]
		op.IDCol, op.CCol = -1, 0
		b = append(b, "SELECT c FROM sbtest WHERE id = "...)
		b = strconv.AppendInt(b, g.ids[0], 10)
	case r < 85:
		op.Kind = ReadIn
		op.IDs = g.ids[:InListKeys]
		g.keys.distinct(op.IDs)
		b = append(b, "SELECT id, c FROM sbtest WHERE id IN ("...)
		for i, id := range op.IDs {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, id, 10)
		}
		b = append(b, ')')
	case r < 95:
		// The 20 consecutive rows are named key by key. A PK BETWEEN has
		// no range access path in this system: it is planned as a
		// full-table AP scan (5.7 ms at 50 000 rows, 250 times a point
		// select), which would turn this workload into a second executor
		// benchmark; htap_mix's TPC-C transactions keep that form covered.
		op.Kind = ReadRange
		lo := g.keys.id()
		if max := int64(g.t.Rows - RangeRows); lo > max {
			lo = max
		}
		op.IDs = g.ids[:RangeRows]
		b = append(b, "SELECT id, c FROM sbtest WHERE id IN ("...)
		for i := range op.IDs {
			op.IDs[i] = lo + int64(i)
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, op.IDs[i], 10)
		}
		b = append(b, ')')
	default:
		op.Kind = ReadAdHoc
		b = g.adHoc(b, rng.Intn(AdHocShapes))
	}
	g.buf = b
	op.SQL = string(b)
	return op
}

// adHocColumns are the 32 projections of the ad-hoc family: the 24
// orders of all four columns, then 8 orders of three columns. Each ends
// in -1 when shorter than four, and each holds id's neighbour c, which
// the result check needs.
var adHocColumns = func() [32][4]int {
	var out [32][4]int
	n := 0
	var rec func(cur []int, used, want int)
	rec = func(cur []int, used, want int) {
		if n == len(out) {
			return
		}
		if len(cur) == want {
			hasC := false
			for _, c := range cur {
				hasC = hasC || c == 2
			}
			if hasC {
				out[n] = [4]int{-1, -1, -1, -1}
				copy(out[n][:], cur)
				n++
			}
			return
		}
		for c := 0; c < 4; c++ {
			if used&(1<<c) == 0 {
				rec(append(cur, c), used|1<<c, want)
			}
		}
	}
	rec(nil, 0, 4)
	rec(nil, 0, 3)
	return out
}()

var sbtestColumns = [4]string{"id", "k", "c", "pad"}

// AdHoc renders shape number shape (0..AdHocShapes-1) of the ad-hoc
// family around a fresh key: 32 projections × 8 subsets of three
// conjuncts × 4 orderings × with/without LIMIT = 2048 statement shapes
// with pairwise distinct fingerprints, four times the plan cache, all
// point reads so that planning is most of their cost.
func (g *ReadGen) AdHoc(shape int) *ReadOp {
	op := &g.op
	op.Kind = ReadAdHoc
	g.buf = g.adHoc(g.buf[:0], shape)
	op.SQL = string(g.buf)
	return op
}

func (g *ReadGen) adHoc(b []byte, shape int) []byte {
	rng, op := g.keys.rng, &g.op
	proj := adHocColumns[shape&31]
	conj := (shape >> 5) & 7
	order := (shape >> 8) & 3
	limited := (shape>>10)&1 == 1

	b = append(b, "SELECT "...)
	op.IDCol = -1
	for i, c := range proj {
		if c < 0 {
			break
		}
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, sbtestColumns[c]...)
		switch c {
		case 0:
			op.IDCol = i
		case 2:
			op.CCol = i
		}
	}
	id := g.keys.id()
	b = append(b, " FROM sbtest WHERE id = "...)
	b = strconv.AppendInt(b, id, 10)
	// Each conjunct holds for most keys and fails for some, so both
	// outcomes of the residual filter are checked.
	rows, k := int64(g.t.Rows), g.t.K(id)
	match := true
	if conj&1 != 0 {
		kMin := rng.Int63n(rows / 4)
		b = append(b, " AND k >= "...)
		b = strconv.AppendInt(b, kMin, 10)
		match = match && k >= kMin
	}
	if conj&2 != 0 {
		kMax := rows - rng.Int63n(rows/4)
		b = append(b, " AND k <= "...)
		b = strconv.AppendInt(b, kMax, 10)
		match = match && k <= kMax
	}
	if conj&4 != 0 {
		other := id + 1
		if rng.Intn(4) == 0 {
			other = id
		}
		b = append(b, " AND id <> "...)
		b = strconv.AppendInt(b, other, 10)
		match = match && other != id
	}
	switch order {
	case 1:
		b = append(b, " ORDER BY id"...)
	case 2:
		b = append(b, " ORDER BY id DESC"...)
	case 3:
		b = append(b, " ORDER BY k, id"...)
	}
	op.Ordered, op.Limit = order != 0, -1
	if limited {
		op.Limit = adHocLimit
		b = append(b, " LIMIT "...)
		b = strconv.AppendInt(b, adHocLimit, 10)
	}
	g.ids[0] = id
	op.IDs = g.ids[:0]
	if match {
		op.IDs = g.ids[:1]
	}
	return b
}

// --- oltp_write / xdc_write transaction -----------------------------------

// WriteTxn is one sysbench oltp_write_only transaction as text: an index
// update (k = k + 1), a non-index update (c), and a DELETE + INSERT of
// one id, on three distinct rows.
type WriteTxn struct {
	// Stmts are the four DML statements between BEGIN and COMMIT.
	Stmts [4]string
	// IDs are the rows touched: k-update, c-update, delete+insert.
	IDs [3]int64
	// NewK is the k value of the re-inserted row.
	NewK int64
	// NewC and NewPad are the re-inserted row's payloads; UpdC is the
	// second statement's new c.
	NewC, NewPad, UpdC string
}

// WriteGen generates write transactions for one connection.
type WriteGen struct {
	keys keyPicker
	txn  WriteTxn
	buf  []byte
}

// NewWriteGen makes the generator of the connection with the given
// parity.
func NewWriteGen(t Sbtest, seed int64, parity int) *WriteGen {
	rng := rand.New(rand.NewSource(seed ^ int64(mix(uint64(parity)+211))))
	return &WriteGen{keys: keyPicker{rng: rng, rows: t.Rows, parity: parity}}
}

// Next returns the next transaction; the value is reused by the
// following call.
func (g *WriteGen) Next() *WriteTxn {
	t, rng := &g.txn, g.keys.rng
	g.keys.distinct(t.IDs[:])
	t.NewK = int64(rng.Intn(g.keys.rows))
	t.UpdC, t.NewC, t.NewPad = randPayload(rng, 32), randPayload(rng, 32), randPayload(rng, 16)

	b := append(g.buf[:0], "UPDATE sbtest SET k = k + 1 WHERE id = "...)
	t.Stmts[0] = string(strconv.AppendInt(b, t.IDs[0], 10))

	b = append(b[:0], "UPDATE sbtest SET c = '"...)
	b = append(b, t.UpdC...)
	b = append(b, "' WHERE id = "...)
	t.Stmts[1] = string(strconv.AppendInt(b, t.IDs[1], 10))

	b = append(b[:0], "DELETE FROM sbtest WHERE id = "...)
	t.Stmts[2] = string(strconv.AppendInt(b, t.IDs[2], 10))

	b = append(b[:0], "INSERT INTO sbtest (id, k, c, pad) VALUES "...)
	b = appendSbtestValues(b, t.IDs[2], t.NewK, t.NewC, t.NewPad)
	t.Stmts[3] = string(b)
	g.buf = b
	return t
}
