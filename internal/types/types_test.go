package types

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null not null")
	}
	if Int(42).AsInt() != 42 || Int(42).AsFloat() != 42 {
		t.Fatal("Int accessors")
	}
	if Float(1.5).AsFloat() != 1.5 || Float(1.9).AsInt() != 1 {
		t.Fatal("Float accessors")
	}
	if Str("7").AsInt() != 7 || Str("1.5").AsFloat() != 1.5 {
		t.Fatal("Str numeric coercion")
	}
	if !Bool(true).IsTruthy() || Bool(false).IsTruthy() {
		t.Fatal("Bool truthiness")
	}
	if Bytes([]byte("ab")).AsString() != "ab" {
		t.Fatal("Bytes AsString")
	}
}

func TestValueAsString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(), "7": Int(7), "1.5": Float(1.5),
		"hi": Str("hi"), "true": Bool(true), "false": Bool(false),
	}
	for want, v := range cases {
		if got := v.AsString(); got != want {
			t.Errorf("AsString(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCompareSemantics(t *testing.T) {
	if Null().Compare(Int(-999)) != -1 {
		t.Fatal("NULL should sort first")
	}
	if Int(1).Compare(Float(1.5)) != -1 {
		t.Fatal("cross numeric compare")
	}
	if Int(2).Compare(Float(2.0)) != 0 {
		t.Fatal("int/float equality")
	}
	if Str("a").Compare(Str("b")) != -1 {
		t.Fatal("string compare")
	}
	if Bytes([]byte{1}).Compare(Bytes([]byte{1, 0})) != -1 {
		t.Fatal("bytes prefix compare")
	}
	if !Bool(true).Equal(Int(1)) {
		t.Fatal("bool/int equality")
	}
}

func TestValueAdd(t *testing.T) {
	if got := Int(2).Add(Int(3)); got.AsInt() != 5 || got.K != KindInt {
		t.Fatalf("int add = %v", got)
	}
	if got := Int(2).Add(Float(0.5)); got.AsFloat() != 2.5 {
		t.Fatalf("mixed add = %v", got)
	}
	if got := Null().Add(Int(7)); got.AsInt() != 7 {
		t.Fatalf("null add = %v", got)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Bytes([]byte{1, 2})}
	c := r.Clone()
	c[1].B[0] = 9
	if r[1].B[0] != 1 {
		t.Fatal("Clone shares bytes backing array")
	}
}

// TestKeyEncodingPreservesOrder is the core property: lexicographic byte
// order of encoded keys must equal Value.Compare order.
func TestKeyEncodingPreservesOrder(t *testing.T) {
	vals := []Value{
		Null(), Int(math.MinInt32), Int(-7), Int(-1), Int(0), Int(1),
		Float(1.5), Int(2), Int(1000), Float(1e9), Int(1 << 40),
		Str(""), Str("a"), Str("a\x00b"), Str("ab"), Str("b"),
	}
	for i := range vals {
		for j := range vals {
			a := EncodeKey(nil, vals[i])
			b := EncodeKey(nil, vals[j])
			got := bytes.Compare(a, b)
			want := vals[i].Compare(vals[j])
			if got != want {
				t.Errorf("order(%v, %v): bytes %d, values %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestKeyEncodingOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, Int(a%(1<<50)))
		kb := EncodeKey(nil, Int(b%(1<<50)))
		return bytes.Compare(ka, kb) == Int(a%(1<<50)).Compare(Int(b%(1<<50)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b string) bool {
		return bytes.Compare(EncodeKey(nil, Str(a)), EncodeKey(nil, Str(b))) ==
			Str(a).Compare(Str(b))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	in := []Value{Int(42), Str("hello\x00world"), Null(), Float(2.25)}
	key := EncodeKey(nil, in...)
	out, rest, err := DecodeKey(key, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	for i := range in {
		if !in[i].Equal(out[i]) {
			t.Fatalf("col %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	// (1, "b") < (2, "a"): first column dominates.
	a := EncodeKey(nil, Int(1), Str("b"))
	b := EncodeKey(nil, Int(2), Str("a"))
	if bytes.Compare(a, b) != -1 {
		t.Fatal("composite ordering broken")
	}
	// Prefix scan property: every key starting with Int(1) is between
	// [Encode(1), Encode(2)).
	lo := EncodeKey(nil, Int(1))
	hi := EncodeKey(nil, Int(2))
	k := EncodeKey(nil, Int(1), Str("zzz"))
	if !(bytes.Compare(lo, k) <= 0 && bytes.Compare(k, hi) < 0) {
		t.Fatal("prefix range property broken")
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, _, err := DecodeKey(nil, 1); err == nil {
		t.Fatal("empty key should error")
	}
	if _, _, err := DecodeKey([]byte{tagNumber, 1, 2}, 1); err == nil {
		t.Fatal("short float should error")
	}
	if _, _, err := DecodeKey([]byte{tagString, 'a'}, 1); err == nil {
		t.Fatal("unterminated string should error")
	}
	if _, _, err := DecodeKey([]byte{0x99}, 1); err == nil {
		t.Fatal("bad tag should error")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := Row{Int(1), Float(2.5), Str("abc"), Null(), Bool(true), Bytes([]byte{0, 1})}
	enc := EncodeRow(nil, r)
	got, err := DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r) {
		t.Fatalf("arity %d", len(got))
	}
	for i := range r {
		if r[i].K != got[i].K || !r[i].Equal(got[i]) {
			t.Fatalf("col %d: %v != %v", i, r[i], got[i])
		}
	}
}

func TestRowCodecProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte) bool {
		r := Row{Int(i), Float(fl), Str(s), Bytes(b), Null()}
		got, err := DecodeRow(EncodeRow(nil, r))
		if err != nil || len(got) != len(r) {
			return false
		}
		if math.IsNaN(fl) {
			// NaN != NaN under Compare; check bits instead.
			return math.IsNaN(got[1].F)
		}
		for i := range r {
			if !r[i].Equal(got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	if _, err := DecodeRow(nil); err == nil {
		t.Fatal("nil row should error")
	}
	r := EncodeRow(nil, Row{Str("hello")})
	if _, err := DecodeRow(r[:len(r)-2]); err == nil {
		t.Fatal("truncated row should error")
	}
}

// FuzzDecodeRow: DecodeRow refuses what it cannot decode instead of
// crashing or allocating for values the input cannot hold, and a row it
// accepts re-encodes to bytes that decode to the same encoding.
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(nil, Row{Int(1), Float(2.5), Str("abc"), Null(), Bool(true), Bytes([]byte{0, 1})}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRow(b)
		if err != nil {
			return
		}
		enc := EncodeRow(nil, r)
		again, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("re-encoded row %x does not decode: %v", enc, err)
		}
		if !bytes.Equal(EncodeRow(nil, again), enc) {
			t.Fatalf("row %x changes when re-encoded", enc)
		}
	})
}

func TestSchemaImplicitPK(t *testing.T) {
	s := NewSchema("t", []Column{{Name: "a", Kind: KindInt}}, nil)
	if !s.ImplicitPK {
		t.Fatal("implicit PK not added")
	}
	if s.ColIndex(ImplicitPKName) != 1 {
		t.Fatal("implicit column missing")
	}
	if len(s.PKCols) != 1 || s.PKCols[0] != 1 {
		t.Fatalf("PKCols = %v", s.PKCols)
	}
}

func TestSchemaExplicitPK(t *testing.T) {
	s := NewSchema("t", []Column{
		{Name: "id", Kind: KindInt}, {Name: "name", Kind: KindString},
	}, []int{0})
	if s.ImplicitPK {
		t.Fatal("unexpected implicit PK")
	}
	r := Row{Int(7), Str("x")}
	if got := s.PKValues(r); len(got) != 1 || got[0].AsInt() != 7 {
		t.Fatalf("PKValues = %v", got)
	}
	if s.ColIndex("NAME") != 1 {
		t.Fatal("case-insensitive ColIndex")
	}
	if s.ColIndex("ghost") != -1 {
		t.Fatal("missing column index")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := NewSchema("t", []Column{
		{Name: "id", Kind: KindInt}, {Name: "name", Kind: KindString},
	}, []int{0})
	if err := s.Validate(Row{Int(1), Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Row{Float(1.5), Str("a")}); err != nil {
		t.Fatal("numeric coercion should validate:", err)
	}
	if err := s.Validate(Row{Int(1), Null()}); err != nil {
		t.Fatal("NULL should validate:", err)
	}
	if err := s.Validate(Row{Int(1)}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := s.Validate(Row{Str("x"), Str("a")}); err == nil {
		t.Fatal("kind mismatch should fail")
	}
}

func TestHashPartitionUniformity(t *testing.T) {
	const shards = 16
	const keys = 16000
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		key := EncodeKey(nil, Int(int64(i)))
		counts[HashPartition(key, shards)]++
	}
	want := keys / shards
	for s, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Fatalf("shard %d has %d keys (expect ~%d): skew too high", s, c, want)
		}
	}
}

func TestHashPartitionSequentialKeysSpread(t *testing.T) {
	// The paper's §II-B motivation: auto-increment keys must NOT pile on
	// one shard the way range partitioning does.
	const shards = 4
	last := -1
	sameRun := 0
	maxRun := 0
	for i := 0; i < 1000; i++ {
		s := HashPartitionValues(shards, Int(int64(i)))
		if s == last {
			sameRun++
			if sameRun > maxRun {
				maxRun = sameRun
			}
		} else {
			sameRun = 0
		}
		last = s
	}
	if maxRun > 12 {
		t.Fatalf("sequential keys produced a run of %d on one shard", maxRun)
	}
}

func TestHashPartitionEdges(t *testing.T) {
	if HashPartition([]byte("x"), 1) != 0 || HashPartition([]byte("x"), 0) != 0 {
		t.Fatal("degenerate shard counts")
	}
}

func TestSortRowsByEncodedKey(t *testing.T) {
	rows := []Row{{Int(3)}, {Int(1)}, {Int(2)}}
	sort.Slice(rows, func(i, j int) bool {
		return bytes.Compare(EncodeKey(nil, rows[i]...), EncodeKey(nil, rows[j]...)) < 0
	})
	for i := 0; i < len(rows)-1; i++ {
		a := EncodeKey(nil, rows[i]...)
		b := EncodeKey(nil, rows[i+1]...)
		if bytes.Compare(a, b) > 0 {
			t.Fatal("sort by encoded key failed")
		}
	}
}

func BenchmarkEncodeKey(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = EncodeKey(buf[:0], Int(int64(i)), Str("warehouse-district-customer"))
	}
}

func BenchmarkEncodeDecodeRow(b *testing.B) {
	r := Row{Int(1), Float(2.5), Str("some medium string value"), Int(99), Str("x")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeRow(nil, r)
		if _, err := DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0x01, 0x02, 0x03}, []byte{0x01, 0x02, 0x04}},
	}
	for _, c := range cases {
		got := PrefixSuccessor(c.in)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("PrefixSuccessor(%x) = %x, want %x", c.in, got, c.want)
		}
	}
	// Property: for any encoded key prefix p and extension e,
	// p <= p||e < successor(p).
	f := func(a int64, s string) bool {
		p := EncodeKey(nil, Int(a))
		full := EncodeKey(p, Str(s))
		succ := PrefixSuccessor(p)
		return bytes.Compare(p, full) <= 0 && (succ == nil || bytes.Compare(full, succ) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeKeyGrowsOnce: a fresh key is allocated once, at its full
// width, and KeyWidth is that width.
func TestEncodeKeyGrowsOnce(t *testing.T) {
	for _, vals := range [][]Value{
		{Int(-7)}, {Float(2.5)}, {Null()}, {Str("sbtest")}, {Bytes([]byte{1, 2})},
		{Int(1), Str("ab"), Null()},
	} {
		width := 0
		for _, v := range vals {
			width += KeyWidth(v)
		}
		var key []byte
		if allocs := testing.AllocsPerRun(100, func() { key = EncodeKey(nil, vals...) }); allocs != 1 {
			t.Errorf("EncodeKey(nil, %v) allocates %.0f times, want 1", vals, allocs)
		}
		if len(key) != width || cap(key) < width {
			t.Errorf("EncodeKey(nil, %v): len %d cap %d, KeyWidth %d", vals, len(key), cap(key), width)
		}
	}
}
