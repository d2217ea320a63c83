package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements two codecs:
//
//  1. The memcomparable key codec: EncodeKey produces bytes whose
//     lexicographic order equals the row-value order, so B+Tree range
//     scans over encoded keys match SQL ORDER BY semantics. Layout per
//     value: a kind tag byte, then an order-preserving body.
//  2. The row codec: EncodeRow/DecodeRow is a compact non-ordered
//     serialization used for redo payloads and page storage.

// Key tag bytes, chosen so NULL < numbers < strings/bytes.
const (
	tagNull   byte = 0x05
	tagNumber byte = 0x10 // ints, floats and bools normalize to one order
	tagString byte = 0x20
	tagBytes  byte = 0x20 // bytes and strings share an order class
)

// ErrCorruptKey reports an undecodable key.
var ErrCorruptKey = errors.New("types: corrupt key encoding")

// ErrCorruptRow reports an undecodable row payload.
var ErrCorruptRow = errors.New("types: corrupt row encoding")

// EncodeKey appends the memcomparable encoding of vals to dst, growing
// dst at most once (by KeyWidth of every value).
func EncodeKey(dst []byte, vals ...Value) []byte {
	n := 0
	for _, v := range vals {
		n += KeyWidth(v)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	for _, v := range vals {
		dst = encodeKeyValue(dst, v)
	}
	return dst
}

// KeyWidth is the number of bytes EncodeKey writes for v: exact, except
// that each 0x00 byte of a string or bytes value takes one more.
func KeyWidth(v Value) int {
	switch v.K {
	case KindNull:
		return 1
	case KindString:
		return 1 + len(v.S) + 2
	case KindBytes:
		return 1 + len(v.B) + 2
	default:
		return 1 + 8
	}
}

func encodeKeyValue(dst []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		return append(dst, tagNull)
	case KindInt, KindBool:
		dst = append(dst, tagNumber)
		return encodeOrderedFloat(dst, float64(v.I))
	case KindFloat:
		dst = append(dst, tagNumber)
		return encodeOrderedFloat(dst, v.F)
	case KindString:
		dst = append(dst, tagString)
		return encodeOrderedBytes(dst, v.S)
	case KindBytes:
		dst = append(dst, tagBytes)
		return encodeOrderedBytes(dst, v.B)
	default:
		panic(fmt.Sprintf("types: cannot key-encode kind %v", v.K))
	}
}

// encodeOrderedFloat writes 8 bytes whose lexicographic order equals the
// float order: positive floats flip the sign bit, negatives flip all bits.
// Integers are encoded through float64, which is exact within ±2^53 —
// ample for benchmark keys (documented trade-off for a uniform number
// order class).
func encodeOrderedFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

func decodeOrderedFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrCorruptKey
	}
	bits := binary.BigEndian.Uint64(b)
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), b[8:], nil
}

// encodeOrderedBytes writes the escaped form: 0x00 bytes become
// 0x00 0xFF, terminated by 0x00 0x01. Lexicographic order is preserved
// and shorter prefixes sort first.
func encodeOrderedBytes[T string | []byte](dst []byte, b T) []byte {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

func decodeOrderedBytes(b []byte) ([]byte, []byte, error) {
	var out []byte
	for i := 0; i < len(b); {
		c := b[i]
		if c != 0x00 {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return nil, nil, ErrCorruptKey
		}
		switch b[i+1] {
		case 0x01:
			return out, b[i+2:], nil
		case 0xFF:
			out = append(out, 0x00)
			i += 2
		default:
			return nil, nil, ErrCorruptKey
		}
	}
	return nil, nil, ErrCorruptKey
}

// DecodeKey parses n values from a memcomparable key, returning the
// values and any remaining bytes.
func DecodeKey(b []byte, n int) ([]Value, []byte, error) {
	out := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		if len(b) == 0 {
			return nil, nil, ErrCorruptKey
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case tagNull:
			out = append(out, Null())
		case tagNumber:
			f, rest, err := decodeOrderedFloat(b)
			if err != nil {
				return nil, nil, err
			}
			b = rest
			if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
				out = append(out, Int(int64(f)))
			} else {
				out = append(out, Float(f))
			}
		case tagString:
			s, rest, err := decodeOrderedBytes(b)
			if err != nil {
				return nil, nil, err
			}
			b = rest
			out = append(out, Str(string(s)))
		default:
			return nil, nil, ErrCorruptKey
		}
	}
	return out, b, nil
}

// EncodeRow appends a compact serialization of the row to dst:
// varint column count, then per column a kind byte + body.
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.K))
		switch v.K {
		case KindNull:
		case KindInt, KindBool:
			dst = binary.AppendVarint(dst, v.I)
		case KindFloat:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
			dst = append(dst, buf[:]...)
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			dst = append(dst, v.B...)
		}
	}
	return dst
}

// DecodeRow parses a row encoded by EncodeRow.
func DecodeRow(b []byte) (Row, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, ErrCorruptRow
	}
	b = b[sz:]
	if n > uint64(len(b)) { // every value takes at least its kind byte
		return nil, ErrCorruptRow
	}
	out := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, ErrCorruptRow
		}
		k := Kind(b[0])
		b = b[1:]
		switch k {
		case KindNull:
			out = append(out, Null())
		case KindInt, KindBool:
			v, sz := binary.Varint(b)
			if sz <= 0 {
				return nil, ErrCorruptRow
			}
			b = b[sz:]
			out = append(out, Value{K: k, I: v})
		case KindFloat:
			if len(b) < 8 {
				return nil, ErrCorruptRow
			}
			out = append(out, Float(math.Float64frombits(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		case KindString, KindBytes:
			l, sz := binary.Uvarint(b)
			if sz <= 0 || uint64(len(b)-sz) < l {
				return nil, ErrCorruptRow
			}
			body := b[sz : sz+int(l)]
			b = b[sz+int(l):]
			if k == KindString {
				out = append(out, Str(string(body)))
			} else {
				out = append(out, Bytes(append([]byte(nil), body...)))
			}
		default:
			return nil, ErrCorruptRow
		}
	}
	return out, nil
}

// PrefixSuccessor returns the smallest byte string greater than every
// string having b as a prefix, for half-open prefix range scans
// [b, PrefixSuccessor(b)). nil means "no upper bound" (b was all 0xFF).
func PrefixSuccessor(b []byte) []byte {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			out := append([]byte(nil), b[:i+1]...)
			out[i]++
			return out
		}
	}
	return nil
}
