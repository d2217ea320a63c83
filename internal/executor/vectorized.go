package executor

import (
	"sort"

	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// Filter is a compiled WHERE clause over column vectors, the one
// `column op literal` compiler of the batch engine and the column index.
// Conjuncts of the form column-op-literal (either way round), BETWEEN and
// IS [NOT] NULL run as typed kernels, on encoded payloads where a
// code-space kernel exists; whatever else is left runs through sql.Eval
// per surviving position on a scratch row. Every path keeps sql.Eval's
// semantics: NULL operands never match, values compare via
// types.Value.Compare. Column positions index the vectors passed to
// Refine. A Filter is not safe for concurrent use.
type Filter struct {
	preds      []simpleBPred
	residual   sql.Expr
	constFalse bool // a conjunct can never be truthy (e.g. col = NULL)
	scratch    types.Row
}

// simpleBPred is one compiled col-op-literal conjunct.
type simpleBPred struct {
	col int
	op  string // "=", "<>", "<", "<=", ">", ">=", "isnull", "notnull"
	val types.Value
}

// CompileFilter decomposes an AND tree (nil = no filter) into typed-kernel
// conjuncts plus a residual expression for whatever doesn't fit.
func CompileFilter(e sql.Expr) *Filter {
	f := &Filter{}
	var walk func(sql.Expr)
	walk = func(n sql.Expr) {
		if n == nil || f.constFalse {
			return
		}
		if b, ok := n.(*sql.BinaryOp); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		if p, ok, cf := compileBatchLeaf(n); cf {
			f.constFalse = true
			return
		} else if ok {
			f.preds = append(f.preds, p...)
			return
		}
		if f.residual == nil {
			f.residual = n
		} else {
			f.residual = &sql.BinaryOp{Op: "AND", L: f.residual, R: n}
		}
	}
	walk(e)
	return f
}

// Cols lists the column positions the typed kernels read (with repeats).
func (f *Filter) Cols() []int {
	cols := make([]int, len(f.preds))
	for k, p := range f.preds {
		cols[k] = p.col
	}
	return cols
}

// Residual reports whether some conjunct evaluates per row over every
// column.
func (f *Filter) Residual() bool { return f.residual != nil }

// Refine narrows sel, in place, to the positions whose rows pass the
// filter and returns it. sel must be ascending (the run-length kernel
// walks runs with a cursor). On error sel's contents are unspecified.
func (f *Filter) Refine(vecs []*vector.Vector, sel []int) ([]int, error) {
	if f.constFalse {
		return sel[:0], nil
	}
	for _, p := range f.preds {
		sel = p.apply(vecs[p.col], sel, sel[:0])
	}
	if f.residual == nil || len(sel) == 0 {
		return sel, nil
	}
	if len(f.scratch) != len(vecs) {
		f.scratch = make(types.Row, len(vecs))
	}
	out := sel[:0]
	for _, i := range sel {
		for c, v := range vecs {
			f.scratch[c] = v.Value(i)
		}
		v, err := sql.Eval(f.residual, f.scratch)
		if err != nil {
			return sel, err
		}
		if v.IsTruthy() {
			out = append(out, i)
		}
	}
	return out, nil
}

// compileBatchLeaf compiles one conjunct; ok=false sends it to the
// residual, constFalse short-circuits the whole filter (a comparison
// against a NULL literal NULLs the conjunct, which falsifies the AND).
func compileBatchLeaf(n sql.Expr) (preds []simpleBPred, ok, constFalse bool) {
	switch e := n.(type) {
	case *sql.BinaryOp:
		switch e.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return nil, false, false
		}
		col, lit := e.L, e.R
		op := e.Op
		if _, isLit := col.(*sql.Literal); isLit {
			col, lit = lit, col
			op = flipCmp(op)
		}
		c, okc := col.(*sql.ColumnRef)
		l, okl := lit.(*sql.Literal)
		if !okc || !okl || c.Index < 0 {
			return nil, false, false
		}
		if l.Val.IsNull() {
			// col <op> NULL is NULL, which falsifies the conjunction.
			return nil, true, true
		}
		return []simpleBPred{{col: c.Index, op: op, val: l.Val}}, true, false
	case *sql.Between:
		if e.Not {
			return nil, false, false
		}
		c, okc := e.E.(*sql.ColumnRef)
		lo, okl := e.Lo.(*sql.Literal)
		hi, okh := e.Hi.(*sql.Literal)
		if !okc || !okl || !okh || c.Index < 0 {
			return nil, false, false
		}
		// Between compares via Compare (NULL sorts first): a NULL lo bound
		// is trivially satisfied, a NULL hi bound never is.
		if hi.Val.IsNull() {
			return nil, true, true
		}
		if lo.Val.IsNull() {
			return []simpleBPred{{col: c.Index, op: "<=", val: hi.Val}}, true, false
		}
		return []simpleBPred{
			{col: c.Index, op: ">=", val: lo.Val},
			{col: c.Index, op: "<=", val: hi.Val},
		}, true, false
	case *sql.IsNull:
		c, okc := e.E.(*sql.ColumnRef)
		if !okc || c.Index < 0 {
			return nil, false, false
		}
		op := "isnull"
		if e.Not {
			op = "notnull"
		}
		return []simpleBPred{{col: c.Index, op: op}}, true, false
	}
	return nil, false, false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// apply refines sel against one column, appending survivors to out
// (which may be sel[:0]: every kernel writes at or behind its read).
// Typed fast paths cover the common vector/literal pairings; everything
// else boxes per position with Value.Compare, which keeps sql.Eval's
// semantics for cross-class comparisons.
func (p simpleBPred) apply(vec *vector.Vector, sel, out []int) []int {
	switch p.op {
	case "isnull":
		for _, i := range sel {
			if vec.IsNull(i) {
				out = append(out, i)
			}
		}
		return out
	case "notnull":
		for _, i := range sel {
			if !vec.IsNull(i) {
				out = append(out, i)
			}
		}
		return out
	}
	if vec.Encoded() {
		if refined, ok := applyEncodedCmp(vec, p.op, p.val, sel, out); ok {
			return refined
		}
		for _, i := range sel {
			v := vec.Value(i)
			if v.IsNull() {
				continue
			}
			if vector.CmpMatches(v.Compare(p.val), p.op) {
				out = append(out, i)
			}
		}
		return out
	}
	nulls := vec.Nulls
	switch {
	case vec.Kind == types.KindInt && p.val.K == types.KindInt:
		return applyIntCmp(vec.Ints, nulls, p.val.I, p.op, sel, out)
	case (vec.Kind == types.KindInt || vec.Kind == types.KindFloat) &&
		(p.val.K == types.KindInt || p.val.K == types.KindFloat):
		c := p.val.AsFloat()
		if vec.Kind == types.KindFloat {
			return applyFloatCmp(vec.Floats, nil, nulls, c, p.op, sel, out)
		}
		return applyFloatCmp(nil, vec.Ints, nulls, c, p.op, sel, out)
	case vec.Kind == types.KindString && p.val.K == types.KindString:
		return applyStrCmp(vec.Strs, nulls, p.val.S, p.op, sel, out)
	}
	for _, i := range sel {
		v := vec.Value(i)
		if v.IsNull() {
			continue
		}
		if vector.CmpMatches(v.Compare(p.val), p.op) {
			out = append(out, i)
		}
	}
	return out
}

// applyIntCmp is the int64 comparison kernel: one branch per row, no
// boxing, per-op loops so the comparison is a single machine op.
func applyIntCmp(ints []int64, nulls []bool, c int64, op string, sel, out []int) []int {
	switch op {
	case "=":
		for _, i := range sel {
			if (nulls == nil || !nulls[i]) && ints[i] == c {
				out = append(out, i)
			}
		}
	case "<>":
		for _, i := range sel {
			if (nulls == nil || !nulls[i]) && ints[i] != c {
				out = append(out, i)
			}
		}
	case "<":
		for _, i := range sel {
			if (nulls == nil || !nulls[i]) && ints[i] < c {
				out = append(out, i)
			}
		}
	case "<=":
		for _, i := range sel {
			if (nulls == nil || !nulls[i]) && ints[i] <= c {
				out = append(out, i)
			}
		}
	case ">":
		for _, i := range sel {
			if (nulls == nil || !nulls[i]) && ints[i] > c {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if (nulls == nil || !nulls[i]) && ints[i] >= c {
				out = append(out, i)
			}
		}
	}
	return out
}

// applyFloatCmp compares a float (or int, promoted) column against a
// numeric literal — mirroring Value.Compare's float promotion for mixed
// numeric kinds. Exactly one of floats/ints is non-nil.
func applyFloatCmp(floats []float64, ints []int64, nulls []bool, c float64, op string, sel, out []int) []int {
	at := func(i int) float64 {
		if floats != nil {
			return floats[i]
		}
		return float64(ints[i])
	}
	for _, i := range sel {
		if nulls != nil && nulls[i] {
			continue
		}
		v := at(i)
		var m bool
		switch op {
		case "=":
			m = v == c
		case "<>":
			m = v != c
		case "<":
			m = v < c
		case "<=":
			m = v <= c
		case ">":
			m = v > c
		default:
			m = v >= c
		}
		if m {
			out = append(out, i)
		}
	}
	return out
}

func applyStrCmp(strs []string, nulls []bool, c string, op string, sel, out []int) []int {
	for _, i := range sel {
		if nulls != nil && nulls[i] {
			continue
		}
		v := strs[i]
		var m bool
		switch op {
		case "=":
			m = v == c
		case "<>":
			m = v != c
		case "<":
			m = v < c
		case "<=":
			m = v <= c
		case ">":
			m = v > c
		default:
			m = v >= c
		}
		if m {
			out = append(out, i)
		}
	}
	return out
}

// BatchFilter refines the batch's selection vector with a compiled
// Filter. No column data is copied.
type BatchFilter struct {
	Input BatchOperator
	Pred  sql.Expr

	filter *Filter
}

// Columns implements BatchOperator.
func (f *BatchFilter) Columns() []string { return f.Input.Columns() }

// Open implements BatchOperator.
func (f *BatchFilter) Open() error {
	f.filter = CompileFilter(f.Pred)
	return f.Input.Open()
}

// NextBatch implements BatchOperator.
func (f *BatchFilter) NextBatch() (*vector.Batch, error) {
	for {
		b, err := f.Input.NextBatch()
		if err != nil {
			return nil, err
		}
		if f.filter.constFalse {
			b.Release()
			continue
		}
		sel := vector.GetSel()
		if b.Sel != nil {
			sel = append(sel, b.Sel...)
		} else {
			for i, n := 0, b.Cap(); i < n; i++ {
				sel = append(sel, i)
			}
		}
		sel, err = f.filter.Refine(b.Vecs, sel)
		if err != nil {
			vector.PutSel(sel)
			b.Release()
			return nil, err
		}
		if len(sel) == 0 {
			vector.PutSel(sel)
			b.Release()
			continue
		}
		if b.Sel != nil && !b.Shared {
			vector.PutSel(b.Sel)
		}
		b.Sel = sel
		return b, nil
	}
}

// Close implements BatchOperator.
func (f *BatchFilter) Close() error { return f.Input.Close() }

// BatchProject evaluates projection expressions batch-at-a-time. When
// every expression is a bound column reference the output is a zero-copy
// view (shared vectors, shared selection); otherwise rows evaluate on a
// scratch row into a fresh batch.
type BatchProject struct {
	Input BatchOperator
	Exprs []sql.Expr
	Names []string

	refs    []int // column index per expr, or -1
	allRefs bool
	scratch types.Row
}

// Columns implements BatchOperator.
func (p *BatchProject) Columns() []string { return p.Names }

// Open implements BatchOperator.
func (p *BatchProject) Open() error {
	p.refs = make([]int, len(p.Exprs))
	p.allRefs = true
	for i, e := range p.Exprs {
		p.refs[i] = -1
		if c, ok := e.(*sql.ColumnRef); ok && c.Index >= 0 {
			p.refs[i] = c.Index
		} else {
			p.allRefs = false
		}
	}
	p.scratch = make(types.Row, len(p.Input.Columns()))
	return p.Input.Open()
}

// NextBatch implements BatchOperator.
func (p *BatchProject) NextBatch() (*vector.Batch, error) {
	b, err := p.Input.NextBatch()
	if err != nil {
		return nil, err
	}
	if p.allRefs {
		// Owner=b: releasing the view forwards to the input batch, whose
		// pooled storage the view borrows — without it the input would
		// never return to the pool.
		out := &vector.Batch{Vecs: make([]*vector.Vector, len(p.refs)), Sel: b.Sel, Shared: true, Owner: b}
		for i, c := range p.refs {
			out.Vecs[i] = b.Vecs[c]
		}
		return out, nil
	}
	out := vector.NewBatch(len(p.Exprs))
	n := b.NumRows()
	for i := 0; i < n; i++ {
		b.RowInto(p.scratch, i)
		for c, e := range p.Exprs {
			if idx := p.refs[c]; idx >= 0 {
				out.Vecs[c].AppendTyped(p.scratch[idx])
				continue
			}
			v, err := sql.Eval(e, p.scratch)
			if err != nil {
				out.Release()
				b.Release()
				return nil, err
			}
			out.Vecs[c].AppendTyped(v)
		}
	}
	b.Release()
	return out, nil
}

// Close implements BatchOperator.
func (p *BatchProject) Close() error { return p.Input.Close() }

// BatchLimit truncates the stream after N selected rows (N < 0 passes
// everything through).
type BatchLimit struct {
	Input BatchOperator
	N     int
	seen  int
}

// Columns implements BatchOperator.
func (l *BatchLimit) Columns() []string { return l.Input.Columns() }

// Open implements BatchOperator.
func (l *BatchLimit) Open() error { l.seen = 0; return l.Input.Open() }

// NextBatch implements BatchOperator.
func (l *BatchLimit) NextBatch() (*vector.Batch, error) {
	if l.N >= 0 && l.seen >= l.N {
		return nil, ErrEOF
	}
	b, err := l.Input.NextBatch()
	if err != nil {
		return nil, err
	}
	n := b.NumRows()
	if l.N >= 0 && l.seen+n > l.N {
		keep := l.N - l.seen
		if b.Sel != nil {
			b.Sel = b.Sel[:keep]
		} else {
			sel := vector.GetSel()
			for i := 0; i < keep; i++ {
				sel = append(sel, i)
			}
			b.Sel = sel
		}
		n = keep
	}
	l.seen += n
	return b, nil
}

// Close implements BatchOperator.
func (l *BatchLimit) Close() error { return l.Input.Close() }

// SortKey is one ORDER BY key over the input layout.
type SortKey struct {
	Expr sql.Expr
	Desc bool
}

// BatchSort materializes its input, orders it stably with sortRows and
// re-batches.
type BatchSort struct {
	Input BatchOperator
	Keys  []SortKey

	out  *BatchesSource
	done bool
}

// Columns implements BatchOperator.
func (s *BatchSort) Columns() []string { return s.Input.Columns() }

// Open implements BatchOperator.
func (s *BatchSort) Open() error {
	s.out, s.done = nil, false
	return s.Input.Open()
}

// NextBatch implements BatchOperator.
func (s *BatchSort) NextBatch() (*vector.Batch, error) {
	if !s.done {
		rows, err := drainRows(s.Input)
		if err != nil {
			return nil, err
		}
		if err := sortRows(rows, s.Keys); err != nil {
			return nil, err
		}
		s.out = &BatchesSource{Batches: BatchesFromRows(rows, len(s.Input.Columns()))}
		s.done = true
	}
	return s.out.NextBatch()
}

// Close implements BatchOperator.
func (s *BatchSort) Close() error {
	s.out = nil
	return s.Input.Close()
}

// sortRows stably orders rows by the given keys.
func sortRows(rows []types.Row, keys []SortKey) error {
	var evalErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a, err := sql.Eval(k.Expr, rows[i])
			if err != nil {
				evalErr = err
				return false
			}
			b, err := sql.Eval(k.Expr, rows[j])
			if err != nil {
				evalErr = err
				return false
			}
			c := a.Compare(b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return evalErr
}
