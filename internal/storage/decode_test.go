package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hlc"
	"repro/internal/wal"
)

// FuzzDecodeTS: a payload of eight bytes or more decodes to the
// timestamp its first eight bytes encode; a shorter one is refused, never
// read as timestamp 0. testdata/fuzz holds a short-payload seed.
func FuzzDecodeTS(f *testing.F) {
	f.Add(EncodeTS(hlc.New(1<<40, 7)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := DecodeTS(b)
		if len(b) < 8 {
			if !errors.Is(err, ErrShortPayload) || ts != 0 {
				t.Fatalf("DecodeTS(%x) = %v, %v; want 0 and ErrShortPayload", b, ts, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("DecodeTS(%x): %v", b, err)
		}
		if !bytes.Equal(EncodeTS(ts), b[:8]) {
			t.Fatalf("DecodeTS(%x) = %v, which encodes as %x", b, ts, EncodeTS(ts))
		}
	})
}

// FuzzDecodePrepareMeta: a payload of sixteen bytes or more round-trips
// through EncodePrepareMeta; a shorter one is refused.
func FuzzDecodePrepareMeta(f *testing.F) {
	f.Add(EncodePrepareMeta(hlc.New(1<<40, 3), 42, "dng0-dc1"))
	f.Add(EncodePrepareMeta(0, 0, ""))
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, id, primary, err := DecodePrepareMeta(b)
		if len(b) < 16 {
			if !errors.Is(err, ErrShortPayload) {
				t.Fatalf("DecodePrepareMeta(%x) = %v, %d, %q, %v; want ErrShortPayload", b, ts, id, primary, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("DecodePrepareMeta(%x): %v", b, err)
		}
		if enc := EncodePrepareMeta(ts, id, primary); !bytes.Equal(enc, b) {
			t.Fatalf("DecodePrepareMeta(%x) re-encodes as %x", b, enc)
		}
	})
}

// TestApplierRefusesShortTimestamps: a commit, commit-point or prepare
// record with a short payload is an apply error, and the transaction it
// names stays uncommitted.
func TestApplierRefusesShortTimestamps(t *testing.T) {
	src, _ := newUserEngine(t)
	txn := src.Begin(now())
	src.Insert(txn, 1, userRow(1, "a", 1))
	src.Commit(txn, advance())
	redo := txn.Redo()
	rows, commit := redo[:len(redo)-1], redo[len(redo)-1]
	if commit.Type != wal.RecCommit {
		t.Fatalf("last redo record is %v, want COMMIT", commit.Type)
	}

	for _, bad := range []wal.Record{
		{Type: wal.RecCommit, TxnID: commit.TxnID, Payload: commit.Payload[:7]},
		{Type: wal.RecCommitPoint, TxnID: commit.TxnID, Payload: commit.Payload[:3]},
		{Type: wal.RecPrepare, TxnID: commit.TxnID, Payload: EncodePrepareMeta(1, 2, "p")[:15]},
	} {
		dst := NewEngine()
		dst.CreateTable(1, 0, usersSchema())
		ap := NewApplier(dst)
		if err := ap.Apply(rows); err != nil {
			t.Fatal(err)
		}
		if err := ap.Apply([]wal.Record{bad}); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("%v with a %d-byte payload: Apply = %v, want ErrShortPayload", bad.Type, len(bad.Payload), err)
		}
		if ap.AppliedTxns() != 0 {
			t.Fatalf("%v with a %d-byte payload committed a transaction", bad.Type, len(bad.Payload))
		}
		if _, ok := ap.CommitPoint(commit.TxnID); ok {
			t.Fatalf("%v with a %d-byte payload recorded a commit point", bad.Type, len(bad.Payload))
		}
	}
}
