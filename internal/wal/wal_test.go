package wal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func rec(t RecordType, tenant, table uint32, txn uint64, key, payload string) Record {
	return Record{Type: t, TenantID: tenant, TableID: table, TxnID: txn,
		Key: []byte(key), Payload: []byte(payload)}
}

func TestRecordRoundTrip(t *testing.T) {
	r := rec(RecInsert, 7, 42, 99, "pk-001", "row payload bytes")
	enc := r.encode(nil)
	if len(enc) != r.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len(enc) = %d", r.EncodedSize(), len(enc))
	}
	got, n, err := decodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.Type != r.Type || got.TenantID != r.TenantID || got.TableID != r.TableID ||
		got.TxnID != r.TxnID || !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Payload, r.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(typ uint8, tenant, table uint32, txn uint64, key, payload []byte) bool {
		r := Record{Type: RecordType(typ), TenantID: tenant, TableID: table,
			TxnID: txn, Key: key, Payload: payload}
		got, n, err := decodeRecord(r.encode(nil))
		if err != nil || n != r.EncodedSize() {
			return false
		}
		return got.Type == r.Type && got.TenantID == r.TenantID &&
			got.TableID == r.TableID && got.TxnID == r.TxnID &&
			bytes.Equal(got.Key, r.Key) && bytes.Equal(got.Payload, r.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordChecksumDetectsCorruption(t *testing.T) {
	r := rec(RecUpdate, 1, 2, 3, "key", "payload")
	enc := r.encode(nil)
	enc[len(enc)-1] ^= 0xFF
	if _, _, err := decodeRecord(enc); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want checksum mismatch", err)
	}
}

func TestRecordTruncated(t *testing.T) {
	r := rec(RecDelete, 1, 2, 3, "key", "payload")
	enc := r.encode(nil)
	if _, _, err := decodeRecord(enc[:10]); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := decodeRecord(enc[:len(enc)-2]); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecordTypeString(t *testing.T) {
	if RecPaxos.String() != "MLOG_PAXOS" {
		t.Fatal("RecPaxos string")
	}
	if RecordType(200).String() != "RecordType(200)" {
		t.Fatal("unknown type string")
	}
}

func TestLogAppendAndRead(t *testing.T) {
	l := NewLog()
	s1, e1 := l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	s2, e2 := l.AppendMTR(rec(RecInsert, 0, 1, 1, "b", "2"), rec(RecCommit, 0, 1, 1, "", ""))
	if s1 != 0 || e1 != s2 {
		t.Fatalf("LSN ranges not contiguous: [%d,%d) [%d,%d)", s1, e1, s2, e2)
	}
	if l.TailLSN() != e2 {
		t.Fatalf("TailLSN = %d, want %d", l.TailLSN(), e2)
	}
	recs, err := l.ReadRecords(0, e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	if recs[2].Type != RecCommit {
		t.Fatalf("last record %v", recs[2].Type)
	}
}

func TestLogReadRangeErrors(t *testing.T) {
	l := NewLog()
	_, end := l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	if _, err := l.ReadBytes(0, end+1); err == nil {
		t.Fatal("read beyond tail should fail")
	}
	if _, err := l.ReadBytes(5, 2); err == nil {
		t.Fatal("inverted range should fail")
	}
}

func TestLogPurge(t *testing.T) {
	l := NewLog()
	_, e1 := l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	_, e2 := l.AppendMTR(rec(RecInsert, 0, 1, 1, "b", "2"))
	l.SetFlushed(e2)
	l.Purge(e1)
	if l.BaseLSN() != e1 {
		t.Fatalf("BaseLSN = %d, want %d", l.BaseLSN(), e1)
	}
	if _, err := l.ReadBytes(0, e1); err == nil {
		t.Fatal("reading purged range should fail")
	}
	recs, err := l.ReadRecords(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Key) != "b" {
		t.Fatalf("post-purge read: %+v", recs)
	}
}

func TestLogPurgeBeyondFlushedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLog()
	_, end := l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	l.Purge(end) // nothing flushed yet
}

func TestLogTruncate(t *testing.T) {
	l := NewLog()
	_, e1 := l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	l.AppendMTR(rec(RecInsert, 0, 1, 2, "b", "2"))
	l.SetFlushed(l.TailLSN())
	if err := l.Truncate(e1); err != nil {
		t.Fatal(err)
	}
	if l.TailLSN() != e1 {
		t.Fatalf("TailLSN after truncate = %d", l.TailLSN())
	}
	if l.FlushedLSN() != e1 {
		t.Fatalf("flushed watermark not pulled back: %d", l.FlushedLSN())
	}
	// Truncate below base is an error.
	l.Purge(e1)
	if err := l.Truncate(0); err == nil {
		t.Fatal("truncate below base should fail")
	}
	// Truncate at/above tail is a no-op.
	if err := l.Truncate(l.TailLSN() + 100); err != nil {
		t.Fatal(err)
	}
}

func TestLogAppendRawMatchesEncoded(t *testing.T) {
	src := NewLog()
	src.AppendMTR(rec(RecInsert, 1, 2, 3, "k1", "v1"), rec(RecCommit, 1, 2, 3, "", ""))
	raw, err := src.ReadBytes(0, src.TailLSN())
	if err != nil {
		t.Fatal(err)
	}
	dst := NewLog()
	_, end := dst.AppendRaw(raw)
	if end != src.TailLSN() {
		t.Fatalf("raw copy tail %d vs %d", end, src.TailLSN())
	}
	recs, err := dst.ReadRecords(0, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records from raw copy", len(recs))
	}
}

func TestNewLogAt(t *testing.T) {
	l := NewLogAt(1000)
	if l.TailLSN() != 1000 || l.BaseLSN() != 1000 || l.FlushedLSN() != 1000 {
		t.Fatalf("NewLogAt watermarks: tail=%d base=%d flushed=%d",
			l.TailLSN(), l.BaseLSN(), l.FlushedLSN())
	}
	start, _ := l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	if start != 1000 {
		t.Fatalf("first append at %d", start)
	}
}

func TestSetFlushedMonotonic(t *testing.T) {
	l := NewLog()
	l.AppendMTR(rec(RecInsert, 0, 1, 1, "a", "1"))
	l.SetFlushed(10)
	l.SetFlushed(5)
	if l.FlushedLSN() != 10 {
		t.Fatalf("flushed regressed to %d", l.FlushedLSN())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := PaxosFrame{Epoch: 3, Index: 17, StartLSN: 100, EndLSN: 130,
		Payload: []byte("thirty bytes of mtr paylooooad")}
	enc, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != FrameHeaderSize+len(f.Payload) {
		t.Fatalf("encoded size %d", len(enc))
	}
	got, n, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d", n)
	}
	if got.Epoch != 3 || got.Index != 17 || got.StartLSN != 100 || got.EndLSN != 130 ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("frame mismatch: %+v", got)
	}
}

func TestFramePayloadCap(t *testing.T) {
	f := PaxosFrame{Payload: make([]byte, MaxFramePayload+1)}
	if _, err := f.Encode(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameChecksumDetection(t *testing.T) {
	f := PaxosFrame{Epoch: 1, Index: 1, StartLSN: 0, EndLSN: 4, Payload: []byte("abcd")}
	enc, _ := f.Encode()
	// Corrupt payload.
	enc[FrameHeaderSize] ^= 0xFF
	if _, _, err := DecodeFrame(enc); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("payload corruption: err = %v", err)
	}
	// Corrupt header.
	enc2, _ := f.Encode()
	enc2[0] ^= 0xFF
	if _, _, err := DecodeFrame(enc2); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("header corruption: err = %v", err)
	}
}

func TestBatcherSplitsAtCap(t *testing.T) {
	ba := NewBatcher(5, 10)
	payload := make([]byte, 25)
	for i := range payload {
		payload[i] = byte(i)
	}
	frames := ba.Next(1000, payload)
	if len(frames) != 3 {
		t.Fatalf("got %d frames", len(frames))
	}
	wantSizes := []int{10, 10, 5}
	var reassembled []byte
	for i, fr := range frames {
		if fr.Epoch != 5 {
			t.Fatalf("epoch %d", fr.Epoch)
		}
		if fr.Index != uint64(i) {
			t.Fatalf("index %d at pos %d", fr.Index, i)
		}
		if len(fr.Payload) != wantSizes[i] {
			t.Fatalf("frame %d payload %d", i, len(fr.Payload))
		}
		if fr.StartLSN != 1000+LSN(len(reassembled)) {
			t.Fatalf("frame %d start %d", i, fr.StartLSN)
		}
		if fr.EndLSN != fr.StartLSN+LSN(len(fr.Payload)) {
			t.Fatalf("frame %d end %d", i, fr.EndLSN)
		}
		reassembled = append(reassembled, fr.Payload...)
	}
	if !bytes.Equal(reassembled, payload) {
		t.Fatal("reassembly mismatch")
	}
	// Indices continue across calls (pipelining).
	more := ba.Next(1025, []byte{1, 2, 3})
	if more[0].Index != 3 {
		t.Fatalf("continuation index %d", more[0].Index)
	}
}

func TestBatcherDefaultCap(t *testing.T) {
	ba := NewBatcher(1, 0)
	frames := ba.Next(0, make([]byte, MaxFramePayload+1))
	if len(frames) != 2 {
		t.Fatalf("got %d frames", len(frames))
	}
	if raw := frames[0].EndLSN - frames[0].StartLSN; raw != MaxFramePayload {
		t.Fatalf("first frame covers %d raw bytes", raw)
	}
}

func TestBatcherEmptyInput(t *testing.T) {
	ba := NewBatcher(1, 0)
	if frames := ba.Next(0, nil); frames != nil {
		t.Fatalf("frames for empty input: %v", frames)
	}
}

func TestDecodeAllEmpty(t *testing.T) {
	recs, err := DecodeAll(nil)
	if err != nil || recs != nil {
		t.Fatalf("DecodeAll(nil) = %v, %v", recs, err)
	}
}

func BenchmarkAppendMTR(b *testing.B) {
	l := NewLog()
	r := rec(RecInsert, 1, 2, 3, "some-primary-key", "a medium sized row payload for realistic encoding cost")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AppendMTR(r)
		if l.Size() > 64<<20 {
			l.SetFlushed(l.TailLSN())
			l.Purge(l.TailLSN())
		}
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	f := PaxosFrame{Epoch: 1, Index: 1, StartLSN: 0, EndLSN: 4096,
		Payload: make([]byte, 4096)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, _ := f.Encode()
		if _, _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	redo := bytes.Repeat([]byte("cust=000042|status=ACTIVE|region=us-east-1|"), 64)
	frames := NewBatcher(5, 0).Next(1000, redo)
	if len(frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(frames))
	}
	fr := frames[0]
	if fr.Codec != CodecLZ {
		t.Fatalf("codec = %d, want CodecLZ for compressible redo", fr.Codec)
	}
	if len(fr.Payload) >= len(redo) {
		t.Fatalf("compressed payload %d >= raw %d", len(fr.Payload), len(redo))
	}
	if fr.StartLSN != 1000 || fr.EndLSN != 1000+LSN(len(redo)) {
		t.Fatalf("LSN range [%d,%d) must cover the RAW bytes", fr.StartLSN, fr.EndLSN)
	}
	// Follower side: encode over the wire, decode, recover the raw bytes.
	enc, err := fr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := got.Body()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, redo) {
		t.Fatal("Body() did not recover the raw redo bytes")
	}
	// Body must not mutate the frame (payloads are shared on dup delivery).
	if got.Codec != CodecLZ || !bytes.Equal(got.Payload, fr.Payload) {
		t.Fatal("Body() mutated the frame")
	}
}

// incompressible returns n bytes the block codec cannot shrink.
func incompressible(n int) []byte {
	out := make([]byte, n)
	x := uint32(0x9e3779b9)
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

func TestFrameCodecRawIdentical(t *testing.T) {
	// Incompressible bytes ship raw: the batcher falls back per chunk.
	redo := incompressible(300)
	frames := NewBatcher(5, 0).Next(0, redo)
	fr := frames[0]
	if fr.Codec != CodecRaw {
		t.Fatalf("incompressible chunk shipped as codec %d, want raw", fr.Codec)
	}
	if !bytes.Equal(fr.Payload, redo) {
		t.Fatal("raw frame must carry the redo bytes unchanged")
	}
	enc, err := fr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc[40] != 0 {
		t.Fatal("raw frames must keep the reserved codec byte zero (pre-codec wire format)")
	}
	body, err := fr.Body()
	if err != nil {
		t.Fatal(err)
	}
	if &body[0] != &fr.Payload[0] {
		t.Fatal("raw Body() should be the payload itself, no copy")
	}
}

func TestFrameCodecBadPayload(t *testing.T) {
	// A corrupted compressed payload must fail Body(), not corrupt the log.
	good := NewBatcher(1, 0).
		Next(0, bytes.Repeat([]byte("xy"), 300))[0]
	if good.Codec != CodecLZ {
		t.Fatalf("setup: want a compressed frame, got codec %d", good.Codec)
	}
	bad := good
	bad.Payload = append([]byte(nil), good.Payload...)
	bad.Payload = bad.Payload[:len(bad.Payload)/2]
	if _, err := bad.Body(); err == nil {
		t.Fatal("truncated compressed payload must fail Body()")
	}
}
