package sql

import (
	"testing"

	"repro/internal/types"
)

func shapeOf(t *testing.T, src string) (*Shape, bool) {
	t.Helper()
	s := new(Shape)
	return s, s.Of(src)
}

// TestShapeKeys: statements share a key exactly when they differ only in
// literal values of the same kind (and in spelling the lexer discards).
func TestShapeKeys(t *testing.T) {
	same := [][2]string{
		{"SELECT c FROM t WHERE id = 1", "select c from t where id = 42"},
		{"SELECT c FROM t WHERE id = -5", "SELECT c FROM t WHERE id = - 7"},
		{"SELECT c FROM t WHERE id IN (1, 2)", "SELECT c FROM t WHERE id IN (3,4) -- note"},
		{"SELECT c FROM t WHERE s = 'a'", `SELECT c FROM t WHERE s = "it''s"`},
		{"SELECT c FROM t WHERE f > 1.5", "SELECT c FROM t WHERE f > 1e3"},
	}
	for _, p := range same {
		a, okA := shapeOf(t, p[0])
		b, okB := shapeOf(t, p[1])
		if !okA || !okB || string(a.Key) != string(b.Key) {
			t.Errorf("%q and %q: shaped %v/%v, keys %q / %q, want one key", p[0], p[1], okA, okB, a.Key, b.Key)
		}
	}
	differ := [][2]string{
		{"SELECT c FROM t WHERE id = -5", "SELECT c FROM t WHERE id = -'5'"},
		{"SELECT c FROM t WHERE id = 5", "SELECT c FROM t WHERE id = 5.0"},
		{"SELECT c FROM t LIMIT 5", "SELECT c FROM t LIMIT 6"},
		{"SELECT c FROM t WHERE id IN (1)", "SELECT c FROM t WHERE id IN (1, 2)"},
		{"SELECT c FROM t WHERE b = TRUE", "SELECT c FROM t WHERE b = FALSE"},
		{"SELECT c FROM t", "SELECT C FROM t"},
		{"SELECT ab FROM t", "SELECT a b FROM t"},
	}
	for _, p := range differ {
		a, okA := shapeOf(t, p[0])
		b, okB := shapeOf(t, p[1])
		if !okA || !okB || string(a.Key) == string(b.Key) {
			t.Errorf("%q and %q: shaped %v/%v, share key %q", p[0], p[1], okA, okB, a.Key)
		}
	}
	for _, src := range []string{
		"INSERT INTO t VALUES (1)",
		"EXPLAIN SELECT c FROM t",
		"SELECT c FROM t WHERE id IN (SELECT id FROM u)",
		"SELECT c FROM t WHERE id = ?",
		"SELECT c FROM t WHERE s = 'open",
		"SELECT c FROM t WHERE id = 99999999999999999999",
		"",
	} {
		if _, ok := shapeOf(t, src); ok {
			t.Errorf("%q shaped, want not shaped", src)
		}
	}
}

// TestShapeLifts: literals are lifted unsigned, in textual order, with
// the offsets the parser records; LIMIT's count is not lifted.
func TestShapeLifts(t *testing.T) {
	const src = "SELECT a FROM t WHERE x = -5 AND s = 'it''s' AND f < .5 LIMIT 3"
	s, ok := shapeOf(t, src)
	if !ok {
		t.Fatal("not shaped")
	}
	want := []types.Value{types.Int(5), types.Str("it's"), types.Float(0.5)}
	if len(s.Lits) != len(want) {
		t.Fatalf("lifted %v, want %v", s.Lits, want)
	}
	for i := range want {
		if s.Lits[i].K != want[i].K || !s.Lits[i].Equal(want[i]) {
			t.Fatalf("lit %d = %v, want %v", i, s.Lits[i], want[i])
		}
	}
	stmt := mustParse(t, src)
	fp, params, ok := FingerprintSelect(stmt.(*Select))
	if !ok {
		t.Fatal("not fingerprinted")
	}
	b, ok := BindShape(s, params)
	if !ok {
		t.Fatalf("shape of %q does not bind to %s", src, fp)
	}
	got := b.Literals(s.Lits)
	for i, p := range params {
		if got[i].Val.K != p.Val.K || !got[i].Val.Equal(p.Val) {
			t.Fatalf("param %d: bound %v, parser has %v", i, got[i].Val, p.Val)
		}
	}
}

// TestBindShapeRefusesUnmatchedParams: a parameter the shape did not
// lift (here a synthesized literal) keeps the shape out of the cache.
func TestBindShapeRefusesUnmatchedParams(t *testing.T) {
	s, ok := shapeOf(t, "SELECT a FROM t WHERE x = 1")
	if !ok {
		t.Fatal("not shaped")
	}
	if _, ok := BindShape(s, []*Literal{{Val: types.Int(1)}}); ok {
		t.Fatal("bound a literal with no source token")
	}
	if _, ok := BindShape(s, nil); ok {
		t.Fatal("bound with an arity mismatch")
	}
}
