package core_test

// Row/batch equivalence harness (the batch engine's correctness gate):
// every TPC-H query runs on two identically seeded clusters. The
// reference classifies every query TP (an infinite TP/AP cost boundary),
// so it runs on the row operators against the leaders' row stores; the
// other classifies the scan-heavy ones AP, so they run on the batch
// engine against the replicas, directly on the dictionary/RLE/bit-packed
// vectors of their column indexes. The results must match. Queries with
// ORDER BY compare positionally; the rest compare as multisets. Floats
// get a small epsilon: partial-aggregate merge order is deterministic
// per mode but the column-index pushdown path may fold in a different
// order than the CN-side fold.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/colindex"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload/tpch"
)

const equivEps = 1e-6

// apThreshold pushes the scan-heavy queries into the AP class at this
// small scale factor (point lookups cost 10 and stay TP).
const apThreshold = 100

// equivCluster builds a loaded TPC-H cluster with AP replicas serving
// column indexes on the scan-heavy tables; plans costing more than
// tpThreshold are AP.
func equivCluster(t *testing.T, tpThreshold float64) *core.Session {
	t.Helper()
	c, err := core.NewCluster(core.Config{ROsPerDN: 1, TPCostThreshold: tpThreshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	s := c.CN(simnet.DC1).NewSession()
	if err := tpch.Load(s, tpch.Config{SF: 0.05, Partitions: 4, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitROConvergence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"lineitem", "orders"} {
		if err := c.EnableColumnIndexes(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// canonKey renders a row for multiset comparison, rounding floats so an
// epsilon-sized difference cannot reorder the canonical sort.
func canonKey(r types.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.K == types.KindFloat {
			fmt.Fprintf(&b, "|%.4f", v.F)
		} else {
			fmt.Fprintf(&b, "|%v", v)
		}
	}
	return b.String()
}

func sameValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.K == types.KindFloat || b.K == types.KindFloat {
		diff := a.AsFloat() - b.AsFloat()
		if diff < 0 {
			diff = -diff
		}
		scale := a.AsFloat()
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		return diff <= equivEps*scale
	}
	return a.Compare(b) == 0
}

func assertEquivalent(t *testing.T, label string, ordered bool, row, batch []types.Row) {
	t.Helper()
	if len(row) != len(batch) {
		t.Fatalf("%s: row mode %d rows, batch mode %d rows", label, len(row), len(batch))
	}
	if !ordered {
		row = append([]types.Row(nil), row...)
		batch = append([]types.Row(nil), batch...)
		sort.Slice(row, func(i, j int) bool { return canonKey(row[i]) < canonKey(row[j]) })
		sort.Slice(batch, func(i, j int) bool { return canonKey(batch[i]) < canonKey(batch[j]) })
	}
	for i := range row {
		if len(row[i]) != len(batch[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(row[i]), len(batch[i]))
		}
		for j := range row[i] {
			if !sameValue(row[i][j], batch[i][j]) {
				t.Fatalf("%s row %d col %d: row-mode %v vs batch-mode %v",
					label, i, j, row[i][j], batch[i][j])
			}
		}
	}
}

// TestTPCHRowBatchEquivalence runs all 22 queries as TP on the row
// engine and under the default classification, and asserts identical
// results.
func TestTPCHRowBatchEquivalence(t *testing.T) {
	rowSess := equivCluster(t, math.Inf(1))
	batchSess := equivCluster(t, apThreshold)
	colindex.ResetScanStats()
	sawBatch := false
	for _, q := range tpch.Queries() {
		rowRes, err := rowSess.Execute(q.SQL)
		if err != nil {
			t.Fatalf("Q%d row mode: %v", q.ID, err)
		}
		if rowRes.Plan.IsAP {
			t.Fatalf("Q%d: the reference cluster classified it AP", q.ID)
		}
		batchRes, err := batchSess.Execute(q.SQL)
		if err != nil {
			t.Fatalf("Q%d batch mode: %v", q.ID, err)
		}
		if batchRes.Plan.IsAP {
			sawBatch = true
		}
		ordered := strings.Contains(strings.ToUpper(q.SQL), "ORDER BY")
		assertEquivalent(t, fmt.Sprintf("Q%d (%s)", q.ID, q.Name), ordered, rowRes.Rows, batchRes.Rows)
	}
	if !sawBatch {
		t.Fatal("no query executed in batch mode; the AP default is not wired")
	}
	if st := colindex.ScanStats(); st.EncodedScans == 0 {
		t.Fatal("no column-index scan touched an encoded vector; the AP leg is not exercising compression")
	}
}

// TestBatchModeSelection checks the optimizer's mode choice: AP plans
// vectorize, TP point reads stay row-at-a-time.
func TestBatchModeSelection(t *testing.T) {
	s := equivCluster(t, apThreshold)
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsAP || !res.Plan.Vectorized {
		t.Fatalf("full scan should be AP+batch, got AP=%v batch=%v", res.Plan.IsAP, res.Plan.Vectorized)
	}
	if !strings.Contains(res.Plan.Explain(), "exec=batch") {
		t.Fatalf("explain missing exec=batch:\n%s", res.Plan.Explain())
	}
	res, err = s.Execute("SELECT o_totalprice FROM orders WHERE o_orderkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.IsAP || res.Plan.Vectorized {
		t.Fatalf("point read should be TP+row, got AP=%v batch=%v", res.Plan.IsAP, res.Plan.Vectorized)
	}
}
