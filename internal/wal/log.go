package wal

import (
	"fmt"
	"sync"
)

// Log is an in-memory redo log: the RW node's log buffer plus the portion
// of the on-disk stream that has not been purged. Appends are MTR-atomic.
// Readers (RO apply loops, Paxos shippers, column-index builders) read
// half-open LSN ranges.
//
// A Log tracks two watermarks:
//
//   - FlushedLSN: everything below it has been written to PolarFS (set by
//     the owner after a successful storage flush);
//   - PurgedLSN:  everything below it has been discarded because all RO
//     nodes and followers consumed it (§II-C step 8).
type Log struct {
	mu      sync.RWMutex
	base    LSN    // LSN of buf[0]
	buf     []byte // contiguous encoded records [base, base+len(buf))
	flushed LSN
}

// NewLog returns an empty redo log starting at LSN 0.
func NewLog() *Log { return &Log{} }

// NewLogAt returns an empty redo log whose next append lands at start.
// Followers that join late and recovering nodes use this.
func NewLogAt(start LSN) *Log { return &Log{base: start, flushed: start} }

// AppendMTR appends a mini-transaction (one or more records) atomically
// and returns the half-open LSN range [start, end) it occupies.
func (l *Log) AppendMTR(recs ...Record) (start, end LSN) {
	if len(recs) == 0 {
		panic("wal: empty MTR")
	}
	l.mu.Lock()
	start = l.base + LSN(len(l.buf))
	for i := range recs {
		l.buf = recs[i].encode(l.buf)
	}
	end = l.base + LSN(len(l.buf))
	l.mu.Unlock()
	return start, end
}

// AppendRaw appends pre-encoded bytes (a follower copying the leader's
// stream verbatim). The bytes must begin and end on record boundaries at
// the current tail.
func (l *Log) AppendRaw(b []byte) (start, end LSN) {
	l.mu.Lock()
	start = l.base + LSN(len(l.buf))
	l.buf = append(l.buf, b...)
	end = l.base + LSN(len(l.buf))
	l.mu.Unlock()
	return start, end
}

// TailLSN returns the LSN one past the last appended byte.
func (l *Log) TailLSN() LSN {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base + LSN(len(l.buf))
}

// BaseLSN returns the lowest LSN still buffered.
func (l *Log) BaseLSN() LSN {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// SetFlushed records that all bytes below lsn are durable in PolarFS.
// It never moves backwards, and it clamps at the tail: a flush that
// raced with a truncation (leader deposition) must not declare bytes
// durable that no longer exist.
func (l *Log) SetFlushed(lsn LSN) {
	l.mu.Lock()
	if tail := l.base + LSN(len(l.buf)); lsn > tail {
		lsn = tail
	}
	if lsn > l.flushed {
		l.flushed = lsn
	}
	l.mu.Unlock()
}

// FlushedLSN returns the durability watermark.
func (l *Log) FlushedLSN() LSN {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.flushed
}

// ReadBytes copies the raw encoded bytes in [from, to). It fails if the
// range extends beyond the tail or has been purged.
func (l *Log) ReadBytes(from, to LSN) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	tail := l.base + LSN(len(l.buf))
	if from < l.base {
		return nil, fmt.Errorf("wal: range [%d,%d) purged (base %d)", from, to, l.base)
	}
	if to > tail || from > to {
		return nil, fmt.Errorf("wal: range [%d,%d) beyond tail %d", from, to, tail)
	}
	return append([]byte(nil), l.buf[from-l.base:to-l.base]...), nil
}

// ReadRecords decodes all records in [from, to). from must be a record
// boundary.
func (l *Log) ReadRecords(from, to LSN) ([]Record, error) {
	b, err := l.ReadBytes(from, to)
	if err != nil {
		return nil, err
	}
	return DecodeAll(b)
}

// DecodeAll parses a byte slice containing whole records back-to-back.
func DecodeAll(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		rec, n, err := decodeRecord(b)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		b = b[n:]
	}
	return recs, nil
}

// Purge discards all bytes below lsn (they have been consumed by every
// replica and the dirty pages they cover are flushed). Purging beyond the
// flushed watermark is a bug and panics.
func (l *Log) Purge(lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.flushed {
		panic(fmt.Sprintf("wal: purge(%d) beyond flushed %d", lsn, l.flushed))
	}
	if lsn <= l.base {
		return
	}
	cut := int(lsn - l.base)
	if cut > len(l.buf) {
		cut = len(l.buf)
	}
	l.buf = append([]byte(nil), l.buf[cut:]...)
	l.base = lsn
}

// Truncate discards all bytes at or above lsn. A follower uses this after
// leader election to drop records beyond the new leader's DLSN (§III,
// Leader Election).
func (l *Log) Truncate(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := l.base + LSN(len(l.buf))
	if lsn < l.base {
		return fmt.Errorf("wal: truncate(%d) below base %d", lsn, l.base)
	}
	if lsn >= tail {
		return nil
	}
	l.buf = l.buf[:lsn-l.base]
	if l.flushed > lsn {
		l.flushed = lsn
	}
	return nil
}

// Size returns the number of buffered (unpurged) bytes.
func (l *Log) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.buf)
}
