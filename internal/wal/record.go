// Package wal implements the InnoDB-style redo log that PolarDB-X's DN
// layer is built around (paper §II-C, §III).
//
// The unit of atomic logging is the mini-transaction (MTR): a group of
// contiguous redo records appended as one unit. LSNs are byte offsets
// into the redo stream, exactly as in InnoDB, so "flush to LSN x" and
// "purge before LSN x" are well-defined. For cross-DC replication the
// stream is chopped into MLOG_PAXOS frames: a 64-byte control header
// carrying epoch, index, the LSN range it covers and a checksum, followed
// by up to 16 KB of batched MTR payload (§III, Pipelining and Batching).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// LSN is a log sequence number: a byte offset into the redo stream.
type LSN uint64

// RecordType tags a redo record, mirroring InnoDB's MLOG_* taxonomy plus
// the MLOG_PAXOS control record the paper adds.
type RecordType uint8

// Redo record types.
const (
	RecInsert RecordType = iota + 1
	RecUpdate
	RecDelete
	RecCommit  // transaction commit marker
	RecAbort   // transaction rollback marker
	RecPrepare // 2PC prepared marker
	RecDDL     // data-dictionary change
	RecTenant  // tenant binding / migration event (PolarDB-MT)
	RecPaxos   // MLOG_PAXOS control record
	RecCheckpt // checkpoint marker

	// 2PC recovery records (paper §IV: the commit decision is made durable
	// on the primary branch, and in-doubt participants resolve against it).
	RecCommitPoint  // commit decision for a distributed txn, logged on the primary branch
	RecResolveAbort // durable presumed-abort verdict logged by the in-doubt resolver
)

func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecPrepare:
		return "PREPARE"
	case RecDDL:
		return "DDL"
	case RecTenant:
		return "TENANT"
	case RecPaxos:
		return "MLOG_PAXOS"
	case RecCheckpt:
		return "CHECKPOINT"
	case RecCommitPoint:
		return "COMMIT_POINT"
	case RecResolveAbort:
		return "RESOLVE_ABORT"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is a single redo record. Key and Payload semantics depend on the
// record type; for row changes Key is the encoded primary key and Payload
// the encoded row image (after-image for insert/update, before-image key
// only for delete).
type Record struct {
	Type     RecordType
	TenantID uint32 // owning tenant (PolarDB-MT routes replay by tenant)
	TableID  uint32
	TxnID    uint64
	Key      []byte
	Payload  []byte
}

// recHeaderSize is the fixed encoded header: type(1) pad(1) tenant(4)
// table(4) txn(8) keyLen(4) payloadLen(4) crc(4).
const recHeaderSize = 1 + 1 + 4 + 4 + 8 + 4 + 4 + 4

// EncodedSize returns the number of redo-stream bytes the record occupies.
func (r *Record) EncodedSize() int {
	return recHeaderSize + len(r.Key) + len(r.Payload)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encode appends the record's wire form to dst and returns the result.
// The header is appended in place and checksummed where it lies.
func (r *Record) encode(dst []byte) []byte {
	at := len(dst)
	dst = append(dst, byte(r.Type), 0)
	dst = binary.LittleEndian.AppendUint32(dst, r.TenantID)
	dst = binary.LittleEndian.AppendUint32(dst, r.TableID)
	dst = binary.LittleEndian.AppendUint64(dst, r.TxnID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
	crc := crc32.Checksum(dst[at:], castagnoli)
	crc = crc32.Update(crc, castagnoli, r.Key)
	crc = crc32.Update(crc, castagnoli, r.Payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, r.Key...)
	dst = append(dst, r.Payload...)
	return dst
}

// Errors returned by decoding.
var (
	ErrShortRecord  = errors.New("wal: truncated record")
	ErrBadChecksum  = errors.New("wal: record checksum mismatch")
	ErrBadAlignment = errors.New("wal: LSN does not align to a record boundary")
)

// decodeRecord parses one record from b, returning the record and the
// number of bytes consumed.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, ErrShortRecord
	}
	keyLen := int(binary.LittleEndian.Uint32(b[18:]))
	payLen := int(binary.LittleEndian.Uint32(b[22:]))
	total := recHeaderSize + keyLen + payLen
	if len(b) < total {
		return Record{}, 0, ErrShortRecord
	}
	wantCRC := binary.LittleEndian.Uint32(b[26:])
	crc := crc32.Checksum(b[:recHeaderSize-4], castagnoli)
	crc = crc32.Update(crc, castagnoli, b[recHeaderSize:total])
	if crc != wantCRC {
		return Record{}, 0, ErrBadChecksum
	}
	rec := Record{
		Type:     RecordType(b[0]),
		TenantID: binary.LittleEndian.Uint32(b[2:]),
		TableID:  binary.LittleEndian.Uint32(b[6:]),
		TxnID:    binary.LittleEndian.Uint64(b[10:]),
	}
	if keyLen > 0 {
		rec.Key = append([]byte(nil), b[recHeaderSize:recHeaderSize+keyLen]...)
	}
	if payLen > 0 {
		rec.Payload = append([]byte(nil), b[recHeaderSize+keyLen:total]...)
	}
	return rec, total, nil
}
