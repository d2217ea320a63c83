package vector

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// mkRaw builds a raw typed vector of a known kind from values, the way
// colindex columns are built (kind preset from the schema, NULLs into
// typed storage).
func mkRaw(kind types.Kind, vals []types.Value) *Vector {
	v := New(kind, len(vals))
	for _, val := range vals {
		v.Append(val)
	}
	return v
}

// assertSame checks enc's accessors against the reference values.
func assertSame(t *testing.T, label string, enc *Vector, vals []types.Value) {
	t.Helper()
	if enc.Len() != len(vals) {
		t.Fatalf("%s: len %d, want %d", label, enc.Len(), len(vals))
	}
	for i, want := range vals {
		if got, isnull := enc.Value(i), enc.IsNull(i); isnull != want.IsNull() || got.Compare(want) != 0 {
			t.Fatalf("%s: pos %d: got %v (null=%v), want %v", label, i, got, isnull, want)
		}
	}
}

func randInts(rng *rand.Rand, n int, nullRate float64, span int64) []types.Value {
	vals := make([]types.Value, n)
	for i := range vals {
		if rng.Float64() < nullRate {
			vals[i] = types.Null()
			continue
		}
		var v int64
		if span >= 1<<61 { // 2*span+1 would overflow Int63n's bound
			v = int64(rng.Uint64())
		} else {
			v = rng.Int63n(2*span+1) - span
		}
		vals[i] = types.Int(v)
	}
	return vals
}

func randStrs(rng *rand.Rand, n int, nullRate float64, card int) []types.Value {
	dict := make([]string, card)
	for i := range dict {
		b := make([]byte, 1+rng.Intn(12))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		dict[i] = string(b)
	}
	vals := make([]types.Value, n)
	for i := range vals {
		if rng.Float64() < nullRate {
			vals[i] = types.Null()
			continue
		}
		vals[i] = types.Str(dict[rng.Intn(card)])
	}
	return vals
}

func randRuns(rng *rand.Rand, n int, nullRate float64) []types.Value {
	vals := make([]types.Value, 0, n)
	for len(vals) < n {
		runLen := 1 + rng.Intn(16)
		var v types.Value
		if rng.Float64() < nullRate {
			v = types.Null()
		} else {
			v = types.Int(rng.Int63n(8))
		}
		for k := 0; k < runLen && len(vals) < n; k++ {
			vals = append(vals, v)
		}
	}
	return vals
}

// roundTrip encodes a copy, checks accessors, checks a prefix view,
// appends a post-encoding tail through the Vector accessor, and decodes
// back to raw — the full life cycle every colindex column goes through.
func roundTrip(t *testing.T, kind types.Kind, enc Encoding, vals, tail []types.Value) {
	t.Helper()
	v := mkRaw(kind, vals)
	if !v.EncodeAs(enc) {
		t.Fatalf("EncodeAs(%v) refused for kind %v", enc, v.Kind)
	}
	if len(vals) > 0 && !v.Encoded() {
		t.Fatalf("EncodeAs(%v) left vector raw", enc)
	}
	assertSame(t, "encoded", v, vals)
	if n := len(vals) / 2; n > 0 {
		assertSame(t, "view", v.View(n), vals[:n])
	}
	all := vals
	for _, val := range tail {
		v.Append(val)
		all = append(append([]types.Value{}, all...), val)
	}
	assertSame(t, "appended", v, all)
	assertSame(t, "view-full", v.View(len(all)), all)
	v.Decode()
	if v.Encoded() {
		t.Fatal("Decode left vector encoded")
	}
	assertSame(t, "decoded", v, all)
}

func TestDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000} {
		for _, nullRate := range []float64{0, 0.1, 1} {
			vals := randStrs(rng, n, nullRate, 7)
			roundTrip(t, types.KindString, EncDict, vals, randStrs(rng, 9, 0.3, 5))
		}
	}
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000} {
		for _, nullRate := range []float64{0, 0.1, 1} {
			for _, span := range []int64{0, 5, 1 << 20, 1 << 62} {
				vals := randInts(rng, n, nullRate, span)
				// The tail spans a wider domain, forcing width-growth repacks.
				roundTrip(t, types.KindInt, EncPack, vals, randInts(rng, 9, 0.3, 1<<40))
			}
		}
	}
}

func TestRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, nullRate := range []float64{0, 0.2, 1} {
			vals := randRuns(rng, n, nullRate)
			roundTrip(t, types.KindInt, EncRLE, vals, randRuns(rng, 9, 0.3))
		}
	}
	// RLE over strings and floats too.
	vals := []types.Value{types.Str("a"), types.Str("a"), types.Null(), types.Str("b")}
	roundTrip(t, types.KindString, EncRLE, vals, []types.Value{types.Str("b"), types.Null()})
	fvals := []types.Value{types.Float(1.5), types.Float(1.5), types.Float(-2)}
	roundTrip(t, types.KindFloat, EncRLE, fvals, []types.Value{types.Float(-2)})
}

func TestPackWidthGrowth(t *testing.T) {
	// Each append doubles the magnitude: every step forces a repack and
	// must preserve the full prefix.
	var vals []types.Value
	v := int64(1)
	for i := 0; i < 62; i++ {
		vals = append(vals, types.Int(v), types.Int(-v))
		v *= 2
	}
	roundTrip(t, types.KindInt, EncPack, vals, []types.Value{types.Int(0)})
}

func TestEncodeAsRefusesWrongKind(t *testing.T) {
	f := mkRaw(types.KindFloat, []types.Value{types.Float(1)})
	if f.EncodeAs(EncDict) || f.EncodeAs(EncPack) {
		t.Fatal("float vector accepted dict/pack encoding")
	}
	s := mkRaw(types.KindString, []types.Value{types.Str("x")})
	if s.EncodeAs(EncPack) {
		t.Fatal("string vector accepted pack encoding")
	}
	if !s.EncodeAs(EncDict) {
		t.Fatal("string vector refused dict encoding")
	}
}

// TestEncodedAppendClassMismatch checks the degrade path: a value the
// encoding can't hold decodes back to raw storage, preserving data.
func TestEncodedAppendClassMismatch(t *testing.T) {
	vals := []types.Value{types.Str("a"), types.Str("b")}
	v := mkRaw(types.KindString, vals)
	v.EncodeAs(EncDict)
	v.Append(types.Int(7))
	if v.Encoded() {
		t.Fatal("class mismatch did not decode")
	}
	assertSame(t, "degraded", v, append(vals, types.Int(7)))
}

func TestDictFilterCmp(t *testing.T) {
	vals := randStrs(rand.New(rand.NewSource(4)), 300, 0.1, 6)
	v := mkRaw(types.KindString, vals)
	v.EncodeAs(EncDict)
	lit := vals[17]
	for lit.IsNull() {
		lit = vals[rand.Intn(len(vals))]
	}
	sel := make([]int, len(vals))
	for i := range sel {
		sel[i] = i
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		got := v.Dict.FilterCmp(op, lit.S, sel, nil)
		var want []int
		for i, val := range vals {
			if !val.IsNull() && CmpMatches(val.Compare(lit), op) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("op %s: %d survivors, want %d", op, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("op %s: survivor %d = %d, want %d", op, k, got[k], want[k])
			}
		}
	}
}

func TestPackAndRLEFilterCmp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randRuns(rng, 400, 0.1)
	sel := make([]int, len(vals))
	for i := range sel {
		sel[i] = i
	}
	check := func(label string, got []int, op string, lit types.Value) {
		t.Helper()
		var want []int
		for i, val := range vals {
			if !val.IsNull() && CmpMatches(val.Compare(lit), op) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s op %s: %d survivors, want %d", label, op, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s op %s: survivor %d = %d, want %d", label, op, k, got[k], want[k])
			}
		}
	}
	p := mkRaw(types.KindInt, vals)
	p.EncodeAs(EncPack)
	r := mkRaw(types.KindInt, vals)
	r.EncodeAs(EncRLE)
	// The extreme literals exercise the pack kernel's empty ranges.
	for _, c := range []int64{3, -1, math.MinInt64, math.MaxInt64} {
		lit := types.Int(c)
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			check("pack", p.Pack.FilterIntCmp(op, lit.I, sel, nil), op, lit)
			check("pack-float", p.Pack.FilterFloatCmp(op, float64(lit.I), sel, nil), op, types.Float(float64(c)))
			check("rle", r.RLE.FilterCmp(op, lit, sel, nil), op, lit)
		}
	}
	sum, count := p.Pack.SumInt(sel)
	var wantSum, wantCount int64
	for _, val := range vals {
		if !val.IsNull() {
			wantSum += val.I
			wantCount++
		}
	}
	if sum != wantSum || count != wantCount {
		t.Fatalf("SumInt = (%d, %d), want (%d, %d)", sum, count, wantSum, wantCount)
	}
}

// FuzzBitPackRoundTrip feeds arbitrary byte streams as (value, null)
// pairs through the bit-pack encoder and checks encode→decode equality.
func FuzzBitPackRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 255, 128, 64})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []types.Value
		for len(data) >= 9 {
			v := int64(uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 |
				uint64(data[3])<<24 | uint64(data[4])<<32 | uint64(data[5])<<40 |
				uint64(data[6])<<48 | uint64(data[7])<<56)
			if data[8]&1 == 1 {
				vals = append(vals, types.Null())
			} else {
				vals = append(vals, types.Int(v))
			}
			data = data[9:]
		}
		v := mkRaw(types.KindInt, vals)
		if !v.EncodeAs(EncPack) {
			t.Fatal("pack refused int vector")
		}
		assertSame(t, "fuzz-pack", v, vals)
		v.Decode()
		assertSame(t, "fuzz-pack-decoded", v, vals)
	})
}

// FuzzDictRoundTrip splits fuzz input into short strings (0xff bytes
// mark NULLs) and round-trips them through the dictionary encoder.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("aa|bb|aa|cc"))
	f.Add([]byte{0xff, 'x', 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []types.Value
		for _, part := range splitFuzz(data) {
			if part == nil {
				vals = append(vals, types.Null())
			} else {
				vals = append(vals, types.Str(string(part)))
			}
		}
		v := mkRaw(types.KindString, vals)
		if !v.EncodeAs(EncDict) {
			t.Fatal("dict refused string vector")
		}
		assertSame(t, "fuzz-dict", v, vals)
		v.Decode()
		assertSame(t, "fuzz-dict-decoded", v, vals)
	})
}

// FuzzRLERoundTrip maps fuzz bytes to a small value domain (forcing
// runs) and round-trips through the run-length encoder.
func FuzzRLERoundTrip(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 2, 9, 9, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []types.Value
		for _, b := range data {
			if b&0x80 != 0 {
				vals = append(vals, types.Null())
			} else {
				vals = append(vals, types.Int(int64(b&7)))
			}
		}
		v := mkRaw(types.KindInt, vals)
		if !v.EncodeAs(EncRLE) {
			t.Fatal("rle refused int vector")
		}
		assertSame(t, "fuzz-rle", v, vals)
		assertSame(t, "fuzz-rle-view", v.View(len(vals)/2), vals[:len(vals)/2])
		v.Decode()
		assertSame(t, "fuzz-rle-decoded", v, vals)
	})
}

// splitFuzz splits on '|'; a 0xff byte anywhere in a segment makes it a
// NULL marker.
func splitFuzz(data []byte) [][]byte {
	var parts [][]byte
	start := 0
	emit := func(seg []byte) {
		for _, b := range seg {
			if b == 0xff {
				parts = append(parts, nil)
				return
			}
		}
		parts = append(parts, seg)
	}
	for i, b := range data {
		if b == '|' {
			emit(data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		emit(data[start:])
	}
	return parts
}
