package executor

import (
	"fmt"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// Micro-benchmark for the engine: a filter→join→agg pipeline at several
// cardinalities, charged with columnarizing its row inputs (as the DN
// does once at the source).

var factCols = []string{"k", "a", "b"}
var dimCols = []string{"k", "name"}

func benchData(n int) (fact, dim []types.Row) {
	fact = make([]types.Row, n)
	for i := 0; i < n; i++ {
		fact[i] = types.Row{
			types.Int(int64(i % 100)),
			types.Float(float64(i) * 0.5),
			types.Int(int64(i % 1000)),
		}
	}
	dim = make([]types.Row, 100)
	for k := 0; k < 100; k++ {
		dim[k] = types.Row{types.Int(int64(k)), types.Str(fmt.Sprintf("name%d", k%10))}
	}
	return fact, dim
}

func batchPipeline(fact, dim []types.Row) BatchOperator {
	f := &BatchFilter{Input: NewBatchRowsSource(factCols, fact), Pred: bin("<", col(2), lit(types.Int(500)))}
	j := &BatchHashJoin{Left: f, Right: NewBatchRowsSource(dimCols, dim),
		LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}}
	return &BatchHashAgg{Input: j, GroupBy: []sql.Expr{col(4)},
		Aggs:  []AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: col(1)}},
		Names: []string{"name", "cnt", "sum"}}
}

func BenchmarkExecBatchPipeline(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		fact, dim := benchData(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CollectBatch(batchPipeline(fact, dim)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchPipelinesAgree pins the benchmark pipeline to the model's
// answer, so the number it reports is for a correct query.
func TestBenchPipelinesAgree(t *testing.T) {
	fact, dim := benchData(10_000)
	joined := modelJoin(modelFilter(fact, func(r types.Row) bool { return r[2].I < 500 }),
		dim, 2, false, equi(at(0), at(3), nil))
	run(t, "bench-pipeline", batchPipeline(fact, dim),
		modelAggregate([][]types.Row{joined}, []rowFn{at(4)}, []modelAgg{{fn: "COUNT"}, {fn: "SUM", arg: at(1)}}))
}
