package sql

import (
	"strings"

	"repro/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any expression node. Expressions are evaluated by the executor
// after the binder resolves column references to row positions.
type Expr interface{ expr() }

// --- Expressions ---

// ColumnRef references table.column (Table may be empty). The binder
// fills Index with the column's position in the operator's input row.
type ColumnRef struct {
	Table  string
	Column string
	// Index is the resolved input-row position (-1 until bound).
	Index int
}

func (*ColumnRef) expr() {}

// Name renders the qualified name.
func (c *ColumnRef) Name() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Literal is a constant value. Param marks a '?' placeholder from a
// prepared statement: the parser leaves Val NULL and binding (the
// Prepared handle's Execute) overwrites Val in place before each run.
// Param survives binding, so FingerprintSelect can keep treating the
// node as a parameter regardless of the currently bound value.
//
// Src is the byte offset plus one of the number or string token the
// parser read the value from (0 for a literal it synthesized), and Neg
// records that unary minus was folded into Val an odd number of times.
// Together they tie the literal to a value the shape pass lifted from
// the same text (BindShape).
//
// Slot is set only on a plan-cache skeleton's own copy of a parameter
// literal: the parameter's position plus one. CloneExpr substitutes the
// instance's literal for it.
type Literal struct {
	Val   types.Value
	Param bool
	Neg   bool
	Src   int
	Slot  int
}

func (*Literal) expr() {}

// BinaryOp applies Op to two operands. Ops: + - * / = <> < <= > >= AND OR LIKE.
type BinaryOp struct {
	Op   string
	L, R Expr
}

func (*BinaryOp) expr() {}

// UnaryOp applies NOT or unary minus.
type UnaryOp struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*UnaryOp) expr() {}

// InList tests membership: E IN (items...).
type InList struct {
	E     Expr
	Items []Expr
	// Sub holds `E IN (SELECT ...)`: exactly one of Items/Sub is set.
	// The CN rewrites uncorrelated subqueries into Items before
	// planning; Eval rejects an unrewritten Sub.
	Sub *Subquery
	Not bool
}

func (*InList) expr() {}

// Exists tests [NOT] EXISTS (SELECT ...). The CN decorrelates the
// common single-equality form into an IN subquery; fully uncorrelated
// EXISTS executes directly.
type Exists struct {
	Sub *Subquery
	Not bool
}

func (*Exists) expr() {}

// Subquery is a parenthesized SELECT used as an expression: a scalar
// operand (`bal > (SELECT AVG(bal) FROM t)`) or an IN source. Only
// uncorrelated subqueries are supported; the CN executes them first and
// substitutes the result as literals (CN-side subquery unnesting).
type Subquery struct {
	Sel *Select
}

func (*Subquery) expr() {}

// Between tests E BETWEEN Lo AND Hi (inclusive).
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

func (*Between) expr() {}

// IsNull tests E IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

func (*IsNull) expr() {}

// FuncCall is an aggregate or scalar function call. Agg functions:
// COUNT/SUM/AVG/MIN/MAX; COUNT(*) has Star=true.
type FuncCall struct {
	Name     string // uppercased
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*FuncCall) expr() {}

// IsAggregate reports whether the function is an aggregate.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END (searched form).
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

func (*CaseExpr) expr() {}

// --- Statements ---

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind types.Kind
}

// CreateTable is CREATE TABLE with the PolarDB-X extensions PARTITIONS n
// and TABLEGROUP g (§II-B's table-group syntax extension).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
	PKCols  []string
	// Partitions is the shard count; PartitionBy optionally names the
	// partition key columns (PARTITIONS n BY (cols); defaults to the
	// primary key).
	Partitions  int
	PartitionBy []string
	TableGroup  string
	IfNotExists bool
}

func (*CreateTable) stmt() {}

// Schema converts the definition to a types.Schema.
func (c *CreateTable) Schema() *types.Schema {
	cols := make([]types.Column, len(c.Columns))
	for i, cd := range c.Columns {
		cols[i] = types.Column{Name: cd.Name, Kind: cd.Kind}
	}
	var pk []int
	for _, name := range c.PKCols {
		for i, cd := range c.Columns {
			if strings.EqualFold(cd.Name, name) {
				pk = append(pk, i)
			}
		}
	}
	return types.NewSchema(c.Name, cols, pk)
}

// CreateIndex is CREATE [GLOBAL] [CLUSTERED] INDEX name ON table (cols).
// Global indexes become hidden partitioned tables (§II-B); local indexes
// are per-shard B+Trees.
type CreateIndex struct {
	Name      string
	Table     string
	Columns   []string
	Global    bool
	Clustered bool
}

func (*CreateIndex) stmt() {}

// Insert is INSERT INTO t [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty = schema order
	Rows    [][]Expr
}

func (*Insert) stmt() {}

// Assignment is one SET column = expr.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE t SET ... [WHERE ...].
type Update struct {
	Table string
	Sets  []Assignment
	Where Expr
}

func (*Update) stmt() {}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

// TableRef is one FROM-clause table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// AliasOrName returns the effective name for column qualification.
func (t TableRef) AliasOrName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN t ON cond (inner joins; LEFT parses and is
// executed as inner-with-null-extension).
type JoinClause struct {
	Table TableRef
	On    Expr
	Left  bool
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement.
type Select struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 = none
}

func (*Select) stmt() {}

// Explain wraps a statement for plan display: EXPLAIN renders the chosen
// physical plan without executing; EXPLAIN ANALYZE executes it with
// instrumented operators and annotates each node with actual rows-out
// and wall time.
type Explain struct {
	Analyze bool
	Stmt    Statement
}

func (*Explain) stmt() {}
