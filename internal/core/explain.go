package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/types"
)

// execExplain serves EXPLAIN [ANALYZE] <select>. Plain EXPLAIN renders
// the chosen physical plan without executing; ANALYZE executes the query
// with every operator wrapped in an instrumented shim and annotates each
// plan node with actual rows-out and wall time (§VI-B's plan surface,
// used to read the Fig. 10 query shapes).
func (s *Session) execExplain(st *sql.Explain) (*Result, error) {
	sel, ok := st.Stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("%w: EXPLAIN %T", errUnsupported, st.Stmt)
	}
	var err error
	if sel.Where, err = s.rewriteSubqueries(sel.Where); err != nil {
		return nil, err
	}
	if sel.Having, err = s.rewriteSubqueries(sel.Having); err != nil {
		return nil, err
	}
	plan, err := s.cn.planFor(sel, s.trace(), nil)
	if err != nil {
		return nil, err
	}
	var text string
	if st.Analyze {
		analyze := make(map[optimizer.Node]*obs.OpStats)
		if _, err := s.runPlan(plan, analyze); err != nil {
			return nil, err
		}
		text = plan.ExplainAnalyze(func(n optimizer.Node) string {
			return analyze[n].Summary()
		})
	} else {
		text = plan.Explain()
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	rows := make([]types.Row, len(lines))
	for i, l := range lines {
		rows[i] = types.Row{types.Str(l)}
	}
	return &Result{Columns: []string{"EXPLAIN"}, Rows: rows, Plan: plan}, nil
}
