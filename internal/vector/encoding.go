package vector

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/types"
)

// This file implements the light-weight column encodings the column
// index stores and the batch engine executes on directly (ROADMAP item
// 1, PolarStore-style "compression pays twice"): dictionary for
// low-cardinality strings, run-length for heavily repeating values
// (visibility timestamps, sorted/clustered columns) and zigzag
// bit-packing for small-domain integers. All three live behind the
// existing Vector accessors (Value/IsNull/Len), so every consumer that
// boxes per position keeps working unchanged; hot kernels ask Encoded()
// and switch to code-space execution instead.
//
// Concurrency contract (shared with the raw payloads): column storage
// is append-only under the owner's write lock; View(n) is taken under
// the read lock and returns a snapshot that is safe to read after the
// lock is released. For bit-packed storage the last partially-filled
// word is still mutated by future appends, so views copy it (and only
// it) instead of aliasing; run-length views copy the run-end prefix
// because the writer extends the live run in place.

// Encoding identifies an encoded representation for EncodeAs.
type Encoding int

// Encodings.
const (
	EncNone Encoding = iota
	EncDict
	EncRLE
	EncPack
)

// zigzag maps signed integers to unsigned so small-magnitude values
// (positive or negative) pack into few bits.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---------------------------------------------------------------------------
// BitPackEnc

// BitPackEnc stores int64 values zigzag-encoded at a fixed bit width in
// a packed little-endian word stream. The width grows to fit the widest
// value seen, repacking in place; widths only grow, so a column repacks
// at most 64 times over its lifetime. NULL positions store value 0 plus
// a bit in a packed null bitmap (lazily materialized, like Vector.Nulls).
type BitPackEnc struct {
	Words     []uint64
	NullWords []uint64 // packed null bitmap; nil = no NULLs so far
	Width     uint8    // bits per value; 0 = every value is zero
	N         int

	// Views copy the writer's partially-filled boundary words here so
	// the shared prefix can alias without racing future appends.
	last        uint64
	lastNull    uint64
	hasLastNull bool
}

// Len returns the number of values.
func (e *BitPackEnc) Len() int { return e.N }

func (e *BitPackEnc) word(j int) uint64 {
	if j < len(e.Words) {
		return e.Words[j]
	}
	return e.last
}

// Get returns the value at position i (0 for NULL positions).
func (e *BitPackEnc) Get(i int) int64 {
	w := uint(e.Width)
	if w == 0 {
		return 0
	}
	bit := i * int(w)
	j, off := bit>>6, uint(bit&63)
	u := e.word(j) >> off
	if off+w > 64 {
		u |= e.word(j+1) << (64 - off)
	}
	if w < 64 {
		u &= 1<<w - 1
	}
	return unzigzag(u)
}

// IsNull reports whether position i is NULL.
func (e *BitPackEnc) IsNull(i int) bool {
	if e.NullWords == nil && !e.hasLastNull {
		return false
	}
	j := i >> 6
	var wd uint64
	if j < len(e.NullWords) {
		wd = e.NullWords[j]
	} else {
		wd = e.lastNull
	}
	return wd>>uint(i&63)&1 == 1
}

// putBits ORs the low w bits of u into the stream at bitpos. The
// destination bits must be zero.
func putBits(words []uint64, bitpos int, w uint8, u uint64) {
	j, off := bitpos>>6, uint(bitpos&63)
	words[j] |= u << off
	if off+uint(w) > 64 {
		words[j+1] |= u >> (64 - off)
	}
}

// repack rewrites the stream at a wider width.
func (e *BitPackEnc) repack(width uint8) {
	words := make([]uint64, (e.N*int(width)+63)/64)
	for i := 0; i < e.N; i++ {
		putBits(words, i*int(width), width, zigzag(e.Get(i)))
	}
	e.Words, e.Width = words, width
}

// Append adds one value. Writer-side only (never call on a view).
func (e *BitPackEnc) Append(v int64, null bool) {
	if null {
		v = 0
		j := e.N >> 6
		for len(e.NullWords) <= j {
			e.NullWords = append(e.NullWords, 0)
		}
		e.NullWords[j] |= 1 << uint(e.N&63)
	}
	u := zigzag(v)
	if need := uint8(bits.Len64(u)); need > e.Width {
		e.repack(need)
	}
	if e.Width > 0 {
		endBit := (e.N + 1) * int(e.Width)
		for len(e.Words)*64 < endBit {
			e.Words = append(e.Words, 0)
		}
		putBits(e.Words, e.N*int(e.Width), e.Width, u)
	}
	e.N++
}

// View returns a read-only snapshot of the first n values. Must be
// called under the owner's lock; the result is safe to read after the
// lock is released even while appends continue.
func (e *BitPackEnc) View(n int) *BitPackEnc {
	v := &BitPackEnc{Width: e.Width, N: n}
	nb := n * int(e.Width)
	full := nb >> 6
	if full > len(e.Words) {
		full = len(e.Words)
	}
	v.Words = e.Words[:full:full]
	if nb&63 != 0 && full < len(e.Words) {
		v.last = e.Words[full]
	}
	if e.NullWords != nil || e.hasLastNull {
		nf := n >> 6
		if nf > len(e.NullWords) {
			nf = len(e.NullWords)
		}
		v.NullWords = e.NullWords[:nf:nf]
		v.hasLastNull = true
		if n&63 != 0 && nf < len(e.NullWords) {
			v.lastNull = e.NullWords[nf]
		}
	}
	return v
}

// SizeBytes is the resident payload size.
func (e *BitPackEnc) SizeBytes() int {
	return 8 * (len(e.Words) + len(e.NullWords))
}

// ---------------------------------------------------------------------------
// RLEEnc

// RLEEnc stores runs of equal values: Ends[r] is the cumulative end row
// of run r (exclusive), with one typed value (or a NULL flag) per run.
// The writer extends the live run in place, so views copy the Ends
// prefix; value slices are append-only and alias safely.
type RLEEnc struct {
	Kind     types.Kind
	Ends     []int32
	Ints     []int64
	Floats   []float64
	Strs     []string
	NullRuns []bool // nil = no NULL runs so far
	N        int
}

// Len returns the number of values.
func (e *RLEEnc) Len() int { return e.N }

// Runs returns the run count.
func (e *RLEEnc) Runs() int { return len(e.Ends) }

// RunStart returns the first row of run r.
func (e *RLEEnc) RunStart(r int) int {
	if r == 0 {
		return 0
	}
	return int(e.Ends[r-1])
}

// RunNull reports whether run r is a NULL run.
func (e *RLEEnc) RunNull(r int) bool {
	return e.NullRuns != nil && e.NullRuns[r]
}

// RunValue boxes run r's value.
func (e *RLEEnc) RunValue(r int) types.Value {
	if e.RunNull(r) {
		return types.Null()
	}
	switch e.Kind {
	case types.KindInt:
		return types.Int(e.Ints[r])
	case types.KindBool:
		return types.Bool(e.Ints[r] != 0)
	case types.KindFloat:
		return types.Float(e.Floats[r])
	default:
		return types.Str(e.Strs[r])
	}
}

// FindRun locates the run containing row i. hint is the caller's run
// cursor (ascending scans advance it for amortized O(1) lookups); any
// out-of-order access falls back to binary search.
func (e *RLEEnc) FindRun(i, hint int) int {
	if hint >= 0 && hint < len(e.Ends) && i < int(e.Ends[hint]) && i >= e.RunStart(hint) {
		return hint
	}
	if next := hint + 1; hint >= 0 && next < len(e.Ends) && i >= int(e.Ends[hint]) && i < int(e.Ends[next]) {
		return next
	}
	return sort.Search(len(e.Ends), func(r int) bool { return int(e.Ends[r]) > i })
}

// Value boxes position i (binary-search path; scans should use FindRun
// with a cursor and RunValue instead).
func (e *RLEEnc) Value(i int) types.Value {
	return e.RunValue(e.FindRun(i, -1))
}

// IsNull reports whether position i is NULL.
func (e *RLEEnc) IsNull(i int) bool {
	if e.NullRuns == nil {
		return false
	}
	return e.NullRuns[e.FindRun(i, -1)]
}

// Append adds one value (already coerced to Kind, or NULL). Writer-side
// only.
func (e *RLEEnc) Append(val types.Value) {
	null := val.IsNull()
	if r := len(e.Ends) - 1; r >= 0 && e.sameAsRun(r, val, null) {
		e.Ends[r]++
		e.N++
		return
	}
	if null && e.NullRuns == nil {
		e.NullRuns = make([]bool, len(e.Ends), len(e.Ends)+1)
	}
	if e.NullRuns != nil {
		e.NullRuns = append(e.NullRuns, null)
	}
	switch e.Kind {
	case types.KindInt, types.KindBool:
		e.Ints = append(e.Ints, val.I)
	case types.KindFloat:
		e.Floats = append(e.Floats, val.F)
	default:
		e.Strs = append(e.Strs, val.S)
	}
	e.Ends = append(e.Ends, int32(e.N+1))
	e.N++
}

func (e *RLEEnc) sameAsRun(r int, val types.Value, null bool) bool {
	if e.RunNull(r) != null {
		return false
	}
	if null {
		return true
	}
	switch e.Kind {
	case types.KindInt, types.KindBool:
		return e.Ints[r] == val.I
	case types.KindFloat:
		return e.Floats[r] == val.F
	default:
		return e.Strs[r] == val.S
	}
}

// View returns a read-only snapshot of the first n values. Must be
// called under the owner's lock.
func (e *RLEEnc) View(n int) *RLEEnc {
	v := &RLEEnc{Kind: e.Kind, N: n}
	if n == 0 {
		return v
	}
	k := sort.Search(len(e.Ends), func(r int) bool { return int(e.Ends[r]) >= n }) + 1
	ends := make([]int32, k)
	copy(ends, e.Ends[:k])
	if ends[k-1] > int32(n) {
		ends[k-1] = int32(n)
	}
	v.Ends = ends
	v.Ints = e.Ints[:min(k, len(e.Ints)):min(k, len(e.Ints))]
	v.Floats = e.Floats[:min(k, len(e.Floats)):min(k, len(e.Floats))]
	v.Strs = e.Strs[:min(k, len(e.Strs)):min(k, len(e.Strs))]
	if e.NullRuns != nil {
		// NullRuns is backfilled to the full run count when materialized,
		// so it always covers runs [0, k).
		v.NullRuns = e.NullRuns[:k:k]
	}
	return v
}

// SizeBytes is the resident payload size.
func (e *RLEEnc) SizeBytes() int {
	n := 4*len(e.Ends) + 8*len(e.Ints) + 8*len(e.Floats) + len(e.NullRuns)
	for _, s := range e.Strs {
		n += 16 + len(s)
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// DictEnc

// DictEnc stores low-cardinality strings as bit-packed codes into an
// append-only dictionary. Codes are assigned in first-appearance order
// and never reused, so within one column a code comparison is an exact
// equality test and per-code match tables evaluate ordered predicates
// with |dict| string comparisons instead of |rows|.
type DictEnc struct {
	Codes BitPackEnc
	Vals  []string
	// index is writer-side only (views carry nil and fall back to a
	// linear scan in LookupCode, which is fine: lookups per scan are
	// O(|dict|), not O(rows)).
	index map[string]uint32
}

// NewDictEnc returns an empty writer-side dictionary encoding.
func NewDictEnc() *DictEnc {
	return &DictEnc{index: make(map[string]uint32)}
}

// Len returns the number of values.
func (e *DictEnc) Len() int { return e.Codes.N }

// Card returns the dictionary cardinality.
func (e *DictEnc) Card() int { return len(e.Vals) }

// Code returns the dictionary code at position i (meaningless for NULL
// positions).
func (e *DictEnc) Code(i int) uint32 { return uint32(e.Codes.Get(i)) }

// IsNull reports whether position i is NULL.
func (e *DictEnc) IsNull(i int) bool { return e.Codes.IsNull(i) }

// Str returns the string at position i ("" for NULL positions).
func (e *DictEnc) Str(i int) string {
	if e.Codes.IsNull(i) {
		return ""
	}
	return e.Vals[e.Codes.Get(i)]
}

// LookupCode returns the code for s, if present.
func (e *DictEnc) LookupCode(s string) (uint32, bool) {
	if e.index != nil {
		c, ok := e.index[s]
		return c, ok
	}
	for c, v := range e.Vals {
		if v == s {
			return uint32(c), true
		}
	}
	return 0, false
}

// Append adds one value. Writer-side only.
func (e *DictEnc) Append(s string, null bool) {
	if null {
		e.Codes.Append(0, true)
		return
	}
	c, ok := e.index[s]
	if !ok {
		c = uint32(len(e.Vals))
		e.Vals = append(e.Vals, s)
		e.index[s] = c
	}
	e.Codes.Append(int64(c), false)
}

// View returns a read-only snapshot of the first n values. Must be
// called under the owner's lock. The dictionary may contain codes not
// referenced below n; that is harmless.
func (e *DictEnc) View(n int) *DictEnc {
	return &DictEnc{Codes: *e.Codes.View(n), Vals: e.Vals[:len(e.Vals):len(e.Vals)]}
}

// SizeBytes is the resident payload size (codes + dictionary).
func (e *DictEnc) SizeBytes() int {
	n := e.Codes.SizeBytes()
	for _, s := range e.Vals {
		n += 16 + len(s)
	}
	return n
}

// ---------------------------------------------------------------------------
// Vector integration

// Encoded reports whether the vector's payload is encoded. Kernels that
// touch Ints/Floats/Strs directly must check this and dispatch to the
// code-space kernels (or the boxed accessors) instead.
func (v *Vector) Encoded() bool { return v.Dict != nil || v.RLE != nil || v.Pack != nil }

// EncodeAs re-encodes a raw typed vector's payload in place. Returns
// false (leaving the vector unchanged) when the encoding doesn't apply
// to the vector's kind. Writer-side only.
func (v *Vector) EncodeAs(enc Encoding) bool {
	if v.Encoded() || v.Boxed() {
		return enc == EncNone && !v.Boxed()
	}
	switch enc {
	case EncDict:
		if v.Kind != types.KindString {
			return false
		}
		d := NewDictEnc()
		for i := 0; i < v.length; i++ {
			d.Append(v.Strs[i], v.Nulls != nil && v.Nulls[i])
		}
		v.Dict = d
	case EncPack:
		if v.Kind != types.KindInt && v.Kind != types.KindBool {
			return false
		}
		p := &BitPackEnc{}
		for i := 0; i < v.length; i++ {
			p.Append(v.Ints[i], v.Nulls != nil && v.Nulls[i])
		}
		v.Pack = p
	case EncRLE:
		r := &RLEEnc{Kind: v.Kind}
		for i := 0; i < v.length; i++ {
			r.Append(v.Value(i))
		}
		v.RLE = r
	default:
		return enc == EncNone
	}
	v.Ints, v.Floats, v.Strs, v.Nulls = nil, nil, nil, nil
	return true
}

// Decode materializes an encoded payload back to raw typed storage in
// place (the degrade path when an encoding stops paying off, and the
// raw fallback for values an encoding can't hold). Writer-side only.
func (v *Vector) Decode() {
	if !v.Encoded() {
		return
	}
	n := v.length
	var nulls []bool
	anyNull := false
	hasNull := func(i int) bool {
		switch {
		case v.Dict != nil:
			return v.Dict.IsNull(i)
		case v.Pack != nil:
			return v.Pack.IsNull(i)
		default:
			return v.RLE.IsNull(i)
		}
	}
	for i := 0; i < n; i++ {
		if hasNull(i) {
			anyNull = true
			break
		}
	}
	if anyNull {
		nulls = make([]bool, n)
	}
	switch v.Kind {
	case types.KindInt, types.KindBool:
		ints := make([]int64, n)
		for i := 0; i < n; i++ {
			if anyNull && hasNull(i) {
				nulls[i] = true
				continue
			}
			if v.Pack != nil {
				ints[i] = v.Pack.Get(i)
			} else {
				ints[i] = v.Value(i).I
			}
		}
		v.Ints = ints
	case types.KindFloat:
		floats := make([]float64, n)
		for i := 0; i < n; i++ {
			if anyNull && hasNull(i) {
				nulls[i] = true
				continue
			}
			floats[i] = v.Value(i).F
		}
		v.Floats = floats
	case types.KindString:
		strs := make([]string, n)
		for i := 0; i < n; i++ {
			if anyNull && hasNull(i) {
				nulls[i] = true
				continue
			}
			if v.Dict != nil {
				strs[i] = v.Dict.Str(i)
			} else {
				strs[i] = v.Value(i).S
			}
		}
		v.Strs = strs
	}
	v.Nulls = nulls
	v.Dict, v.RLE, v.Pack = nil, nil, nil
}

// appendEncoded routes Append into the active encoding, falling back to
// decode + raw append when the value doesn't fit the encoding's class.
func (v *Vector) appendEncoded(val types.Value) {
	null := val.IsNull()
	switch {
	case v.Dict != nil:
		if !null && val.K != types.KindString {
			v.Decode()
			v.Append(val)
			return
		}
		v.Dict.Append(val.S, null)
	case v.Pack != nil:
		if !null && val.K != types.KindInt && val.K != types.KindBool {
			v.Decode()
			v.Append(val)
			return
		}
		v.Pack.Append(val.I, null)
	default:
		if !null && !sameClass(v.RLE.Kind, val.K) {
			v.Decode()
			v.Append(val)
			return
		}
		v.RLE.Append(val)
	}
	v.length++
}

func sameClass(a, b types.Kind) bool {
	intish := func(k types.Kind) bool { return k == types.KindInt || k == types.KindBool }
	if intish(a) {
		return intish(b)
	}
	return a == b
}

// View returns a zero-copy read-only snapshot of the first n values,
// raw or encoded. Must be called under the storage owner's lock (the
// column index's RLock); the append-only contract makes the result safe
// to read afterward. Views belong in Shared batches.
func (v *Vector) View(n int) *Vector {
	out := &Vector{Kind: v.Kind, length: n}
	switch {
	case v.Dict != nil:
		out.Dict = v.Dict.View(n)
	case v.Pack != nil:
		out.Pack = v.Pack.View(n)
	case v.RLE != nil:
		out.RLE = v.RLE.View(n)
	default:
		if v.Ints != nil {
			out.Ints = v.Ints[:n:n]
		}
		if v.Floats != nil {
			out.Floats = v.Floats[:n:n]
		}
		if v.Strs != nil {
			out.Strs = v.Strs[:n:n]
		}
		if v.Nulls != nil {
			out.Nulls = v.Nulls[:n:n]
		}
		if v.Box != nil {
			out.Box = v.Box[:n:n]
		}
	}
	return out
}

// gatherDict appends src's values at pos into an empty raw vector,
// decoding through the dictionary without boxing.
func (v *Vector) gatherDict(src *DictEnc, pos []int) {
	v.Kind = types.KindString
	if v.Strs == nil {
		v.Strs = make([]string, 0, len(pos))
	}
	for k, p := range pos {
		if src.IsNull(p) {
			if v.Nulls == nil {
				v.Nulls = make([]bool, v.length+k, v.length+len(pos))
			}
			v.Nulls = append(v.Nulls, true)
			v.Strs = append(v.Strs, "")
			continue
		}
		if v.Nulls != nil {
			v.Nulls = append(v.Nulls, false)
		}
		v.Strs = append(v.Strs, src.Vals[src.Codes.Get(p)])
	}
	v.length += len(pos)
}

// ---------------------------------------------------------------------------
// Code-space kernels (used by executor batch operators and colindex)

// CmpMatches reports whether a three-way comparison result satisfies a
// SQL comparison operator.
func CmpMatches(c int, op string) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

// FilterCmp refines sel against `column OP lit`, appending survivors to
// out. `value OP lit` is evaluated once per dictionary entry into a
// per-code truth table: |dict| string comparisons replace |rows| of
// them, and the row loop becomes a code-indexed bit test. NULL positions
// never match (SQL comparison semantics).
func (e *DictEnc) FilterCmp(op string, lit string, sel, out []int) []int {
	table := make([]bool, len(e.Vals))
	for c, s := range e.Vals {
		var cmp int
		switch {
		case s < lit:
			cmp = -1
		case s > lit:
			cmp = 1
		}
		table[c] = CmpMatches(cmp, op)
	}
	for _, i := range sel {
		if e.Codes.IsNull(i) {
			continue
		}
		if c := e.Codes.Get(i); table[c] {
			out = append(out, i)
		}
	}
	return out
}

// FilterIntCmp refines sel against `column OP c` over bit-packed ints,
// decoding per surviving position. The operator becomes a closed range
// [lo, hi] (negated for <>), so the row loop makes two integer
// comparisons and no operator dispatch.
func (e *BitPackEnc) FilterIntCmp(op string, c int64, sel, out []int) []int {
	lo, hi, neg := int64(math.MinInt64), int64(math.MaxInt64), false
	switch op {
	case "=":
		lo, hi = c, c
	case "<>":
		lo, hi, neg = c, c, true
	case "<":
		if c == math.MinInt64 {
			return out
		}
		hi = c - 1
	case "<=":
		hi = c
	case ">":
		if c == math.MaxInt64 {
			return out
		}
		lo = c + 1
	default:
		lo = c
	}
	for _, i := range sel {
		if e.IsNull(i) {
			continue
		}
		if v := e.Get(i); (v >= lo && v <= hi) != neg {
			out = append(out, i)
		}
	}
	return out
}

// FilterFloatCmp is FilterIntCmp with the column promoted to float
// (mixed int/float comparisons mirror Value.Compare's promotion).
func (e *BitPackEnc) FilterFloatCmp(op string, c float64, sel, out []int) []int {
	for _, i := range sel {
		if e.IsNull(i) {
			continue
		}
		v := float64(e.Get(i))
		var cmp int
		switch {
		case v < c:
			cmp = -1
		case v > c:
			cmp = 1
		}
		if CmpMatches(cmp, op) {
			out = append(out, i)
		}
	}
	return out
}

// FilterCmp refines sel against `column OP lit` over run-length data:
// the predicate evaluates once per run, and the (ascending) selection
// walks runs with an amortized-O(1) cursor.
func (e *RLEEnc) FilterCmp(op string, lit types.Value, sel, out []int) []int {
	match := make([]bool, len(e.Ends))
	for r := range e.Ends {
		if e.RunNull(r) {
			continue
		}
		match[r] = CmpMatches(e.RunValue(r).Compare(lit), op)
	}
	run := 0
	for _, i := range sel {
		run = e.FindRun(i, run)
		if match[run] {
			out = append(out, i)
		}
	}
	return out
}

// SumInt folds the selected positions into an int64 sum and non-null
// count (the SUM/COUNT fused-kernel path for bit-packed columns).
func (e *BitPackEnc) SumInt(sel []int) (sum int64, count int64) {
	if sel != nil {
		for _, i := range sel {
			if !e.IsNull(i) {
				sum += e.Get(i)
				count++
			}
		}
		return sum, count
	}
	for i := 0; i < e.N; i++ {
		if !e.IsNull(i) {
			sum += e.Get(i)
			count++
		}
	}
	return sum, count
}

// SizeBytes estimates the resident payload bytes (string headers
// counted at 16 bytes plus content; shared backing arrays counted
// once per vector).
func (v *Vector) SizeBytes() int {
	switch {
	case v.Dict != nil:
		return v.Dict.SizeBytes()
	case v.Pack != nil:
		return v.Pack.SizeBytes()
	case v.RLE != nil:
		return v.RLE.SizeBytes()
	}
	n := 8*len(v.Ints) + 8*len(v.Floats) + len(v.Nulls) + 48*len(v.Box)
	for _, s := range v.Strs {
		n += 16 + len(s)
	}
	return n
}
