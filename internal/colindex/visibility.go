package colindex

import (
	"repro/internal/hlc"
)

// visibility tracks each row version's [created, deleted) window. The
// layout exploits the structure of the data: created timestamps arrive
// in commit order, so consecutive rows of one transaction form runs
// (run-length encoded as cumulative ends), and deletions are sparse, so
// a packed has-deleted bitmap plus a small position→timestamp map
// replaces a mostly-zero timestamp array. All access happens under the
// Index lock.
type visibility struct {
	n int

	cEnds    []int32 // cumulative end row per created-TS run
	cVals    []hlc.Timestamp
	delWords []uint64 // packed has-deleted bitmap (grown lazily)
	delMap   map[int32]hlc.Timestamp
}

func (vs *visibility) len() int { return vs.n }

// append records one new row version created at ts.
func (vs *visibility) append(ts hlc.Timestamp) {
	if r := len(vs.cEnds) - 1; r >= 0 && vs.cVals[r] == ts {
		vs.cEnds[r]++
	} else {
		vs.cEnds = append(vs.cEnds, int32(vs.n+1))
		vs.cVals = append(vs.cVals, ts)
	}
	vs.n++
}

// kill marks row i deleted at ts (idempotence is the caller's concern:
// flushLocked only kills live rows).
func (vs *visibility) kill(i int, ts hlc.Timestamp) {
	w := i >> 6
	for len(vs.delWords) <= w {
		vs.delWords = append(vs.delWords, 0)
	}
	vs.delWords[w] |= 1 << uint(i&63)
	if vs.delMap == nil {
		vs.delMap = make(map[int32]hlc.Timestamp)
	}
	vs.delMap[int32(i)] = ts
}

// deletedAt returns row i's deletion timestamp (zero = live).
func (vs *visibility) deletedAt(i int) hlc.Timestamp {
	if w := i >> 6; w >= len(vs.delWords) || vs.delWords[w]>>uint(i&63)&1 == 0 {
		return 0
	}
	return vs.delMap[int32(i)]
}

// sizeBytes is the resident footprint of the visibility metadata.
func (vs *visibility) sizeBytes() int {
	return 4*len(vs.cEnds) + 8*len(vs.cVals) + 8*len(vs.delWords) + 48*len(vs.delMap)
}

// visCursor answers per-row visibility checks for an ascending scan,
// amortizing the created-run lookup to O(1) per row. Each scan owns its
// cursor; it is only valid under the lock it was created under.
type visCursor struct {
	vs  *visibility
	run int
}

func (vs *visibility) cursor() visCursor { return visCursor{vs: vs} }

// visible reports whether row i is live at snapshot ts. i may be
// arbitrary, but ascending access is the fast path.
func (c *visCursor) visible(i int, ts hlc.Timestamp) bool {
	vs := c.vs
	r := c.run
	if r >= len(vs.cEnds) || i < runStart(vs.cEnds, r) || i >= int(vs.cEnds[r]) {
		r = findEndsRun(vs.cEnds, i, r)
		c.run = r
	}
	if vs.cVals[r] > ts {
		return false
	}
	if w := i >> 6; w >= len(vs.delWords) || vs.delWords[w]>>uint(i&63)&1 == 0 {
		return true
	}
	d := vs.delMap[int32(i)]
	return d > ts
}

func runStart(ends []int32, r int) int {
	if r == 0 {
		return 0
	}
	return int(ends[r-1])
}

// findEndsRun locates the run containing i, trying hint and hint+1
// before falling back to binary search.
func findEndsRun(ends []int32, i, hint int) int {
	if next := hint + 1; next < len(ends) && i >= runStart(ends, next) && i < int(ends[next]) {
		return next
	}
	lo, hi := 0, len(ends)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ends[mid]) > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
