package autopilot

import "testing"

func TestPlanShards(t *testing.T) {
	loads := []int64{100, 110, 90, 1200, 105, 250}
	actions := planShards(loads, 1.5)
	if len(actions) != 2 {
		t.Fatalf("actions = %+v", actions)
	}
	if actions[0].Shard != 3 || !actions[0].Split {
		t.Fatalf("extreme outlier: %+v", actions[0])
	}
	if actions[1].Shard != 5 || actions[1].Split {
		t.Fatalf("moderate outlier should migrate: %+v", actions[1])
	}
	if actions[0].String() == actions[1].String() {
		t.Fatal("action strings should differ")
	}
	if planShards(nil, 2) != nil || planShards([]int64{0, 0}, 2) != nil {
		t.Fatal("degenerate inputs")
	}
}

// planShards boundary behavior: the planner must stay silent on
// degenerate inputs and act only strictly beyond its thresholds.
func TestPlanShardsEdges(t *testing.T) {
	if got := planShards(nil, 2); got != nil {
		t.Fatalf("empty loads planned %+v", got)
	}
	// A single shard is its own median — never an outlier.
	if got := planShards([]int64{5000}, 2); got != nil {
		t.Fatalf("single shard planned %+v", got)
	}
	// All-equal loads: nothing exceeds factor×median.
	if got := planShards([]int64{300, 300, 300, 300}, 1.5); got != nil {
		t.Fatalf("uniform loads planned %+v", got)
	}
	// Exactly at factor×median is NOT an outlier (strict >): median of
	// {100,100,100,200} is 100, 200 == 100×2.
	if got := planShards([]int64{100, 100, 100, 200}, 2); got != nil {
		t.Fatalf("boundary load planned %+v", got)
	}
	// One past the boundary is a moderate outlier → migrate.
	got := planShards([]int64{100, 100, 100, 201}, 2)
	if len(got) != 1 || got[0].Shard != 3 || got[0].Split {
		t.Fatalf("just-over boundary: %+v", got)
	}
	// Exactly at the split boundary (2×factor×median) still migrates...
	got = planShards([]int64{100, 100, 100, 400}, 2)
	if len(got) != 1 || got[0].Split {
		t.Fatalf("split boundary: %+v", got)
	}
	// ...one past it splits.
	got = planShards([]int64{100, 100, 100, 401}, 2)
	if len(got) != 1 || !got[0].Split {
		t.Fatalf("past split boundary: %+v", got)
	}
}
