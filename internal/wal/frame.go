package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"repro/internal/compress"
)

// PaxosFrame is the unit of cross-DC log shipping: an MLOG_PAXOS control
// header plus a batch of raw MTR bytes (§III, Pipelining and Batching).
// The header is exactly 64 bytes and carries the Paxos epoch, a
// per-stream frame index, the LSN range the payload covers, and a
// checksum of the payload. Batching many small MTRs (a few hundred bytes
// each) under one header is what makes replication throughput viable.
type PaxosFrame struct {
	Epoch    uint64 // leader term
	Index    uint64 // consecutive frame number within the epoch stream
	StartLSN LSN    // first byte of payload in the redo stream
	EndLSN   LSN    // one past the last byte
	Codec    uint8  // payload codec: CodecRaw or CodecLZ
	Payload  []byte // on-wire payload bytes (compressed when Codec != CodecRaw)
}

// Payload codecs. The codec byte lives at reserved header offset 40, so
// CodecRaw frames are byte-identical to pre-codec frames and old frames
// decode as raw.
const (
	CodecRaw = 0
	CodecLZ  = 1 // internal/compress LZ block
)

// ErrFrameCodec indicates an unknown codec byte or a payload that fails
// to decompress (possible only via software error — the payload CRC has
// already passed by the time Body decodes).
var ErrFrameCodec = errors.New("wal: bad paxos frame codec/payload")

// Body returns the raw redo bytes the frame carries, decompressing into
// a fresh slice when compressed. The frame is never mutated: the
// simulated network can deliver duplicates sharing the same backing
// arrays.
func (f *PaxosFrame) Body() ([]byte, error) {
	switch f.Codec {
	case CodecRaw:
		return f.Payload, nil
	case CodecLZ:
		body, err := compress.Decode(nil, f.Payload)
		if err != nil {
			return nil, ErrFrameCodec
		}
		if LSN(len(body)) != f.EndLSN-f.StartLSN {
			return nil, ErrFrameCodec
		}
		return body, nil
	}
	return nil, ErrFrameCodec
}

// FrameHeaderSize is the fixed MLOG_PAXOS header size from the paper.
const FrameHeaderSize = 64

// MaxFramePayload caps the batched payload per frame (paper: 16 KB).
const MaxFramePayload = 16 * 1024

// ErrFrameChecksum indicates payload corruption in transit.
var ErrFrameChecksum = errors.New("wal: paxos frame checksum mismatch")

// ErrFrameTooLarge indicates a payload exceeding MaxFramePayload.
var ErrFrameTooLarge = errors.New("wal: paxos frame payload exceeds 16KB")

// Encode serializes the frame (header + payload).
func (f *PaxosFrame) Encode() ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		return nil, ErrFrameTooLarge
	}
	out := make([]byte, FrameHeaderSize+len(f.Payload))
	binary.LittleEndian.PutUint64(out[0:], f.Epoch)
	binary.LittleEndian.PutUint64(out[8:], f.Index)
	binary.LittleEndian.PutUint64(out[16:], uint64(f.StartLSN))
	binary.LittleEndian.PutUint64(out[24:], uint64(f.EndLSN))
	binary.LittleEndian.PutUint32(out[32:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(out[36:], crc32.Checksum(f.Payload, castagnoli))
	// Byte 40 is the payload codec (raw frames keep the historical zero);
	// 41..60 stay reserved. Final 4 bytes checksum the header.
	out[40] = f.Codec
	binary.LittleEndian.PutUint32(out[60:], crc32.Checksum(out[:60], castagnoli))
	copy(out[FrameHeaderSize:], f.Payload)
	return out, nil
}

// DecodeFrame parses an encoded frame, verifying both checksums, and
// returns the frame plus bytes consumed.
func DecodeFrame(b []byte) (PaxosFrame, int, error) {
	if len(b) < FrameHeaderSize {
		return PaxosFrame{}, 0, ErrShortRecord
	}
	if crc32.Checksum(b[:60], castagnoli) != binary.LittleEndian.Uint32(b[60:]) {
		return PaxosFrame{}, 0, ErrFrameChecksum
	}
	payLen := int(binary.LittleEndian.Uint32(b[32:]))
	total := FrameHeaderSize + payLen
	if len(b) < total {
		return PaxosFrame{}, 0, ErrShortRecord
	}
	payload := b[FrameHeaderSize:total]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[36:]) {
		return PaxosFrame{}, 0, ErrFrameChecksum
	}
	f := PaxosFrame{
		Epoch:    binary.LittleEndian.Uint64(b[0:]),
		Index:    binary.LittleEndian.Uint64(b[8:]),
		StartLSN: LSN(binary.LittleEndian.Uint64(b[16:])),
		EndLSN:   LSN(binary.LittleEndian.Uint64(b[24:])),
		Codec:    b[40],
		Payload:  append([]byte(nil), payload...),
	}
	return f, total, nil
}

// Batcher slices a redo byte stream into MLOG_PAXOS frames of at most
// maxPayload bytes, assigning consecutive indices. It is the leader-side
// component of pipelined log shipping; it holds no lock of its own and is
// owned by the single shipping goroutine.
type Batcher struct {
	epoch      uint64
	nextIndex  uint64
	maxPayload int
	scratch    []byte
}

// NewBatcher creates a Batcher for the given epoch. maxPayload <= 0
// defaults to MaxFramePayload.
func NewBatcher(epoch uint64, maxPayload int) *Batcher {
	if maxPayload <= 0 || maxPayload > MaxFramePayload {
		maxPayload = MaxFramePayload
	}
	return &Batcher{epoch: epoch, maxPayload: maxPayload}
}

// Next splits [start, start+len(b)) into frames. The split respects the
// payload cap but not record boundaries — followers append raw bytes and
// only decode on apply, exactly like shipping a physical log. Each chunk
// ships block-compressed (CodecLZ) when that is smaller than the raw
// bytes, raw otherwise; chunking is always by raw size, so frame LSN
// ranges do not depend on the codec.
func (ba *Batcher) Next(start LSN, b []byte) []PaxosFrame {
	var frames []PaxosFrame
	for off := 0; off < len(b); {
		n := len(b) - off
		if n > ba.maxPayload {
			n = ba.maxPayload
		}
		chunk := b[off : off+n]
		codec, payload := uint8(CodecRaw), chunk
		if ba.scratch = compress.Encode(ba.scratch, chunk); len(ba.scratch) < n {
			codec, payload = CodecLZ, ba.scratch
		}
		payload = append([]byte(nil), payload...)
		frames = append(frames, PaxosFrame{
			Epoch:    ba.epoch,
			Index:    ba.nextIndex,
			StartLSN: start + LSN(off),
			EndLSN:   start + LSN(off+n),
			Codec:    codec,
			Payload:  payload,
		})
		ba.nextIndex++
		off += n
	}
	return frames
}

// Epoch returns the batcher's epoch.
func (ba *Batcher) Epoch() uint64 { return ba.epoch }
