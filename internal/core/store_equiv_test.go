package core_test

// Store equivalence harness: every TPC-H query runs on two identically
// seeded clusters, both on the one batch engine. The first classifies
// every query TP (an infinite TP/AP cost boundary), so it reads the
// leaders' row stores through transaction branches; the other classifies
// the scan-heavy ones AP, so they read the replicas, directly on the
// dictionary/RLE/bit-packed vectors of their column indexes with
// aggregation pushed down. The results must match. Neither leg is the
// other's reference — what pins each to the right answer is the model
// differential test (model_test.go) and the manual Q1/Q6 computations;
// this test pins the two data paths to each other. Queries with ORDER BY
// compare positionally; the rest compare as multisets. Floats get a
// small epsilon: the column-index pushdown path may fold in a different
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

func assertEquivalent(t *testing.T, label string, ordered bool, tp, ap []types.Row) {
	t.Helper()
	if len(tp) != len(ap) {
		t.Fatalf("%s: TP leg %d rows, AP leg %d rows", label, len(tp), len(ap))
	}
	if !ordered {
		tp = append([]types.Row(nil), tp...)
		ap = append([]types.Row(nil), ap...)
		sort.Slice(tp, func(i, j int) bool { return canonKey(tp[i]) < canonKey(tp[j]) })
		sort.Slice(ap, func(i, j int) bool { return canonKey(ap[i]) < canonKey(ap[j]) })
	}
	for i := range tp {
		if len(tp[i]) != len(ap[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(tp[i]), len(ap[i]))
		}
		for j := range tp[i] {
			if !sameValue(tp[i][j], ap[i][j]) {
				t.Fatalf("%s row %d col %d: TP leg %v vs AP leg %v",
					label, i, j, tp[i][j], ap[i][j])
			}
		}
	}
}

// TestTPCHStoreEquivalence runs all 22 queries as TP on the leaders' row
// stores and under the default classification on the replicas' column
// indexes, and asserts identical results.
func TestTPCHStoreEquivalence(t *testing.T) {
	tpSess := equivCluster(t, math.Inf(1))
	apSess := equivCluster(t, apThreshold)
	colindex.ResetScanStats()
	sawAP := false
	for _, q := range tpch.Queries() {
		tpRes, err := tpSess.Execute(q.SQL)
		if err != nil {
			t.Fatalf("Q%d TP leg: %v", q.ID, err)
		}
		if tpRes.Plan.IsAP {
			t.Fatalf("Q%d: the all-TP cluster classified it AP", q.ID)
		}
		apRes, err := apSess.Execute(q.SQL)
		if err != nil {
			t.Fatalf("Q%d AP leg: %v", q.ID, err)
		}
		if apRes.Plan.IsAP {
			sawAP = true
		}
		ordered := strings.Contains(strings.ToUpper(q.SQL), "ORDER BY")
		assertEquivalent(t, fmt.Sprintf("Q%d (%s)", q.ID, q.Name), ordered, tpRes.Rows, apRes.Rows)
	}
	if !sawAP {
		t.Fatal("no query was classified AP; the second leg is not reading the replicas")
	}
	if st := colindex.ScanStats(); st.EncodedScans == 0 {
		t.Fatal("no column-index scan touched an encoded vector; the AP leg is not exercising compression")
	}
}

// TestBatchModeSelection checks that the class is the optimizer's cost
// decision and the engine is not: a full scan is AP, a point read TP,
// and both run on the batch engine.
func TestBatchModeSelection(t *testing.T) {
	s := equivCluster(t, apThreshold)
	for _, tc := range []struct {
		sql  string
		isAP bool
	}{
		{"SELECT COUNT(*) FROM lineitem", true},
		{"SELECT o_totalprice FROM orders WHERE o_orderkey = 1", false},
	} {
		res, err := s.Execute(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		class := "class=TP"
		if tc.isAP {
			class = "class=AP"
		}
		explain := res.Plan.Explain()
		if res.Plan.IsAP != tc.isAP || !strings.Contains(explain, class) || !strings.Contains(explain, "exec=batch") {
			t.Fatalf("%s: want %s exec=batch, got AP=%v:\n%s", tc.sql, class, res.Plan.IsAP, explain)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows", tc.sql, len(res.Rows))
		}
	}
}
