package colindex

import (
	"sync/atomic"

	"repro/internal/executor"
)

// Package-wide scan accounting, cheap enough to stay always-on: the
// Fig. 10 benchmarks report bytes scanned per query from here, and the
// compression benchmark uses the encoded/total split to prove the
// encoded path actually served the scans.
var (
	statScans        atomic.Int64
	statEncodedScans atomic.Int64
	statBytesScanned atomic.Int64
)

// Stats is a snapshot of the package scan counters.
type Stats struct {
	Scans        int64 // column-index scans served (AggScan/ScanBatch)
	EncodedScans int64 // scans that touched at least one encoded column
	BytesScanned int64 // resident bytes of the columns each scan touched
}

// ScanStats returns the current package-wide scan counters.
func ScanStats() Stats {
	return Stats{
		Scans:        statScans.Load(),
		EncodedScans: statEncodedScans.Load(),
		BytesScanned: statBytesScanned.Load(),
	}
}

// ResetScanStats zeroes the package counters (benchmark setup).
func ResetScanStats() {
	statScans.Store(0)
	statEncodedScans.Store(0)
	statBytesScanned.Store(0)
}

// noteScan records one scan touching the marked columns. Called with at
// least the read lock held (szBytes is only written under the write
// lock).
func (x *Index) noteScan(touched []bool) {
	statScans.Add(1)
	var bytes int64
	encoded := false
	for c, t := range touched {
		if !t {
			continue
		}
		bytes += int64(x.cols[c].szBytes)
		if x.cols[c].data.Encoded() {
			encoded = true
		}
	}
	statBytesScanned.Add(bytes)
	x.scanBytes.Add(bytes)
	if encoded {
		statEncodedScans.Add(1)
		x.encodedScans.Inc()
	}
}

// touchedCols marks the columns a scan reads: the filter's kernel
// columns plus the projection, or every column when the projection is
// open or a residual conjunct materializes whole rows.
func (x *Index) touchedCols(f *executor.Filter, projection []int) []bool {
	touched := make([]bool, len(x.cols))
	if f.Residual() || projection == nil {
		for c := range touched {
			touched[c] = true
		}
		return touched
	}
	for _, c := range f.Cols() {
		touched[c] = true
	}
	for _, c := range projection {
		touched[c] = true
	}
	return touched
}
