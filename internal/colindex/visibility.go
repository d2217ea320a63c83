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

// appendVisible appends the rows live at snapshot ts to sel in
// ascending order, a created-run at a time, and stops once sel holds
// stop rows (0 = no limit).
func (vs *visibility) appendVisible(sel []int, ts hlc.Timestamp, stop int) []int {
	start := 0
	for r, end := range vs.cEnds {
		if vs.cVals[r] <= ts {
			for i := start; i < int(end); i++ {
				if w := i >> 6; w < len(vs.delWords) && vs.delWords[w]>>uint(i&63)&1 == 1 && vs.delMap[int32(i)] <= ts {
					continue
				}
				sel = append(sel, i)
				if len(sel) == stop {
					return sel
				}
			}
		}
		start = int(end)
	}
	return sel
}
