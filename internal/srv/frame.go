// Package srv is the cluster's front door: a wire server that speaks a
// compact length-prefixed frame protocol (QUERY / PREPARE / EXECUTE /
// CLOSE with tenant and deadline metadata) and multiplexes many client
// connections onto the CN fleet. Connections are cheap — each holds one
// idle Session and a prepared-statement table; the scarce resource is a
// *running statement*, bounded by the cluster's admission controller.
// The server runs over two transports: the simulated fabric (simnet
// endpoints, used by the workload drivers and chaos tests) and real TCP
// (cmd/polardbx-srv).
package srv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/types"
)

// Frame kinds. A frame is one kind byte followed by a kind-specific
// payload; on TCP each frame is preceded by a u32 big-endian body
// length, on simnet the body is the message itself.
const (
	// Requests.
	kindHello   = 0x01 // tenant string, statement-timeout micros i64
	kindQuery   = 0x02 // sql string
	kindPrepare = 0x03 // sql string
	kindExecute = 0x04 // stmt id u32, arg count u32, values
	kindClose   = 0x05 // stmt id u32
	kindQuit    = 0x06 // empty
	// Responses.
	respOK   = 0x81 // affected u32
	respRows = 0x82 // col count u32, names, row count u32, values
	respStmt = 0x83 // stmt id u32, param count u32
	respErr  = 0xFF // code string, message string
)

// maxFrame bounds a single frame body; larger frames are a protocol
// error (protects the TCP reader from a hostile or corrupt length).
const maxFrame = 16 << 20

// ErrMalformedFrame reports a frame that could not be decoded.
var ErrMalformedFrame = errors.New("srv: malformed frame")

// --- encoding -----------------------------------------------------------

func putU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func putI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func putStr(b []byte, s string) []byte {
	b = putU32(b, uint32(len(s)))
	return append(b, s...)
}

// valueSize is the number of bytes putValue writes for v.
func valueSize(v types.Value) int {
	switch v.K {
	case types.KindInt, types.KindBool, types.KindFloat:
		return 1 + 8
	case types.KindString:
		return 1 + 4 + len(v.S)
	case types.KindBytes:
		return 1 + 4 + len(v.B)
	default:
		return 1
	}
}

func putValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case types.KindNull:
	case types.KindInt, types.KindBool:
		b = putI64(b, v.I)
	case types.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case types.KindString:
		b = putStr(b, v.S)
	case types.KindBytes:
		b = putU32(b, uint32(len(v.B)))
		b = append(b, v.B...)
	}
	return b
}

// --- decoding -----------------------------------------------------------

// cursor is a sticky-error frame reader. s, when set, is b as one
// string: str then returns substrings of it instead of copying each.
type cursor struct {
	b   []byte
	s   string
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = ErrMalformedFrame
	}
}

// left is the number of bytes not yet read.
func (c *cursor) left() int { return len(c.b) - c.off }

func (c *cursor) byte() byte {
	if c.err != nil || c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) i64() int64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := int64(binary.BigEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v
}

func (c *cursor) str() string {
	n := int(c.u32())
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail()
		return ""
	}
	var s string
	if c.s != "" {
		s = c.s[c.off : c.off+n]
	} else {
		s = string(c.b[c.off : c.off+n])
	}
	c.off += n
	return s
}

func (c *cursor) bytes() []byte {
	n := int(c.u32())
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, c.b[c.off:c.off+n])
	c.off += n
	return out
}

func (c *cursor) value() types.Value {
	k := types.Kind(c.byte())
	switch k {
	case types.KindNull:
		return types.Value{}
	case types.KindInt:
		return types.Int(c.i64())
	case types.KindBool:
		return types.Bool(c.i64() != 0)
	case types.KindFloat:
		if c.err != nil || c.off+8 > len(c.b) {
			c.fail()
			return types.Value{}
		}
		bits := binary.BigEndian.Uint64(c.b[c.off:])
		c.off += 8
		return types.Float(math.Float64frombits(bits))
	case types.KindString:
		return types.Str(c.str())
	case types.KindBytes:
		return types.Bytes(c.bytes())
	default:
		c.fail()
		return types.Value{}
	}
}

// --- response builders (server side) ------------------------------------

func okFrame(affected int) []byte {
	return putU32([]byte{respOK}, uint32(affected))
}

func rowsFrame(cols []string, rows []types.Row) []byte {
	size := 1 + 4 + 4*len(cols) + 4
	for _, c := range cols {
		size += len(c)
	}
	for _, r := range rows {
		for _, v := range r {
			size += valueSize(v)
		}
	}
	b := append(make([]byte, 0, size), respRows)
	b = putU32(b, uint32(len(cols)))
	for _, c := range cols {
		b = putStr(b, c)
	}
	b = putU32(b, uint32(len(rows)))
	for _, r := range rows {
		for _, v := range r {
			b = putValue(b, v)
		}
	}
	return b
}

func stmtFrame(id uint32, nparams int) []byte {
	b := putU32([]byte{respStmt}, id)
	return putU32(b, uint32(nparams))
}

func errFrame(code, msg string) []byte {
	b := putStr([]byte{respErr}, code)
	return putStr(b, msg)
}

// decodeResponse parses a response frame into the client Result shape.
func decodeResponse(b []byte) (*Result, error) {
	if len(b) == 0 {
		return nil, ErrMalformedFrame
	}
	c := &cursor{b: b, off: 1}
	switch b[0] {
	case respOK:
		res := &Result{Affected: int(c.u32())}
		if c.err != nil {
			return nil, c.err
		}
		return res, nil
	case respStmt:
		res := &Result{StmtID: c.u32(), NumParams: int(c.u32())}
		if c.err != nil {
			return nil, c.err
		}
		return res, nil
	case respRows:
		// A column name takes at least 4 bytes of the frame and a value
		// at least 1, so counts the rest of the frame cannot hold are
		// refused before anything is allocated for them; so are rows
		// without columns, which no statement returns.
		ncols := int(c.u32())
		if c.err != nil || ncols < 0 || ncols > c.left()/4 {
			return nil, ErrMalformedFrame
		}
		// Every string of the result is a substring of one copy of the
		// frame, so decoding allocates per frame, not per row or value
		// (a string kept keeps the whole frame).
		c.s = string(b)
		res := &Result{Columns: make([]string, ncols)}
		for i := range res.Columns {
			res.Columns[i] = c.str()
		}
		nrows := int(c.u32())
		if c.err != nil || nrows < 0 || nrows > 0 && (ncols == 0 || nrows > c.left()/ncols) {
			return nil, ErrMalformedFrame
		}
		// Every row is a capped window of one slab, so an append to one
		// row cannot overwrite the next.
		slab := make([]types.Value, nrows*ncols)
		res.Rows = make([]types.Row, nrows)
		for i := range res.Rows {
			row := slab[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for j := range row {
				row[j] = c.value()
			}
			res.Rows[i] = row
		}
		if c.err != nil {
			return nil, c.err
		}
		return res, nil
	case respErr:
		code, msg := c.str(), c.str()
		if c.err != nil {
			return nil, c.err
		}
		return nil, &WireError{Code: code, Msg: msg}
	default:
		return nil, fmt.Errorf("%w: unknown response kind 0x%02x", ErrMalformedFrame, b[0])
	}
}
