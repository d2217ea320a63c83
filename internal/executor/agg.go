package executor

import (
	"repro/internal/sql"
	"repro/internal/types"
)

// AggMode selects single-phase or MPP two-phase aggregation.
type AggMode int

// Aggregation modes. In the MPP plan (§VI-C) each scan fragment runs a
// Partial aggregate near its data and the coordinator's Final aggregate
// merges partial states — this split is what offloads "the first phase
// of aggregation" in the paper's Q1/Q6 discussion.
const (
	// AggComplete computes finished values in one pass.
	AggComplete AggMode = iota
	// AggPartial emits mergeable state columns instead of final values.
	AggPartial
	// AggFinal merges partial state columns.
	AggFinal
)

// AggSpec describes one aggregate in the output.
type AggSpec struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Arg      sql.Expr
	Star     bool // COUNT(*)
	Distinct bool
}

// stateWidth returns how many columns the spec occupies in Partial mode.
func (a AggSpec) stateWidth() int {
	if a.Func == "AVG" {
		return 2 // sum, count
	}
	return 1
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	spec  AggSpec
	count int64
	sum   types.Value
	min   types.Value
	max   types.Value
	seen  map[string]bool // DISTINCT dedup
}

func newAggState(spec AggSpec) *aggState {
	s := &aggState{spec: spec}
	if spec.Distinct {
		s.seen = make(map[string]bool)
	}
	return s
}

func (s *aggState) add(v types.Value) {
	if s.spec.Distinct {
		k := string(types.EncodeKey(nil, v))
		if s.seen[k] {
			return
		}
		s.seen[k] = true
	}
	switch s.spec.Func {
	case "COUNT":
		if s.spec.Star || !v.IsNull() {
			s.count++
		}
	case "SUM", "AVG":
		if !v.IsNull() {
			s.sum = s.sum.Add(v)
			s.count++
		}
	case "MIN":
		if !v.IsNull() && (s.min.IsNull() || v.Compare(s.min) < 0) {
			s.min = v
		}
	case "MAX":
		if !v.IsNull() && (s.max.IsNull() || v.Compare(s.max) > 0) {
			s.max = v
		}
	}
}

// merge folds a partial state (encoded as values) into s.
func (s *aggState) merge(vals []types.Value) {
	switch s.spec.Func {
	case "COUNT":
		s.count += vals[0].AsInt()
	case "SUM":
		if !vals[0].IsNull() {
			s.sum = s.sum.Add(vals[0])
			s.count++
		}
	case "AVG":
		if !vals[0].IsNull() {
			s.sum = s.sum.Add(vals[0])
		}
		s.count += vals[1].AsInt()
	case "MIN":
		if !vals[0].IsNull() && (s.min.IsNull() || vals[0].Compare(s.min) < 0) {
			s.min = vals[0]
		}
	case "MAX":
		if !vals[0].IsNull() && (s.max.IsNull() || vals[0].Compare(s.max) > 0) {
			s.max = vals[0]
		}
	}
}

// final renders the finished value(s). Partial mode emits state columns.
func (s *aggState) final(mode AggMode) []types.Value {
	if mode == AggPartial {
		switch s.spec.Func {
		case "COUNT":
			return []types.Value{types.Int(s.count)}
		case "SUM":
			return []types.Value{s.sum}
		case "AVG":
			return []types.Value{s.sum, types.Int(s.count)}
		case "MIN":
			return []types.Value{s.min}
		case "MAX":
			return []types.Value{s.max}
		}
	}
	switch s.spec.Func {
	case "COUNT":
		return []types.Value{types.Int(s.count)}
	case "SUM":
		return []types.Value{s.sum}
	case "AVG":
		if s.count == 0 {
			return []types.Value{types.Null()}
		}
		return []types.Value{types.Float(s.sum.AsFloat() / float64(s.count))}
	case "MIN":
		return []types.Value{s.min}
	case "MAX":
		return []types.Value{s.max}
	}
	return []types.Value{types.Null()}
}

// aggGroup is one group's key values and per-aggregate states.
type aggGroup struct {
	keyVals types.Row
	states  []*aggState
}
