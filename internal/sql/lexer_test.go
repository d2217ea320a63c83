package sql

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// lexAll runs the lexer to EOF without collecting tokens.
func lexAll(tb testing.TB, src string) {
	l := NewLexer(src)
	for {
		t, err := l.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if t.Kind == TokEOF {
			return
		}
	}
}

// TestLexerPointSelectAllocatesNothing: identifiers, keywords, numbers
// and operators are views of the source, and a keyword is recognized
// without upper-casing a copy.
func TestLexerPointSelectAllocatesNothing(t *testing.T) {
	const q = "select c from sbtest WHERE id = 4711 AND k <= 9 -- point read"
	if n := testing.AllocsPerRun(100, func() { lexAll(t, q) }); n != 0 {
		t.Fatalf("lexing a point select allocates %.1f times, want 0", n)
	}
}

// TestLexerLinearInStatementLength: a statement twice as long costs
// about twice the bytes to lex (the lexer once copied the rest of the
// statement at every operator, which is quadratic).
func TestLexerLinearInStatementLength(t *testing.T) {
	insert := func(rows int) string {
		var b strings.Builder
		b.WriteString("INSERT INTO sbtest (id, k, c) VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, 'c-%030d')", i, i*7, i)
		}
		return b.String()
	}
	bytesFor := func(src string) float64 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			lexAll(t, src)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := bytesFor(insert(1000)), bytesFor(insert(2000))
	if large > 2.2*small {
		t.Fatalf("lexing 2000 rows allocates %.0f B, 1000 rows %.0f B: ratio %.2f, want <= 2.2",
			large, small, large/small)
	}
}

// TestLexerStringLiteralIsACopy: a string token never aliases the
// statement text, with or without escapes.
func TestLexerStringLiteralIsACopy(t *testing.T) {
	for _, src := range []string{`SELECT 'plain value'`, `SELECT 'it''s'`, `SELECT 'a\'b'`, `SELECT "dq"`} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatal(err)
		}
		lit := toks[1]
		if lit.Kind != TokString {
			t.Fatalf("%s: token %+v is not a string", src, lit)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		p := uintptr(unsafe.Pointer(unsafe.StringData(lit.Text)))
		if p >= lo && p < hi {
			t.Fatalf("%s: string token %q aliases the source", src, lit.Text)
		}
	}
}

// TestSyntaxErrorsWrapErrSyntax: lexer and parser errors are ErrSyntax
// and keep their messages.
func TestSyntaxErrorsWrapErrSyntax(t *testing.T) {
	for src, msg := range map[string]string{
		"SELECT 'unterminated":     "sql: unterminated string at 7",
		"SELECT @x FROM t":         "sql: unexpected character '@' at 7",
		"SELECT FROM t":            "sql: parse error at 7: unexpected \"FROM\" in expression",
		"SELECT a FROM t LIMIT 1x": "sql: parse error at 23: trailing input \"x\"",
	} {
		_, err := Parse(src)
		if !errors.Is(err, ErrSyntax) || err.Error() != msg {
			t.Errorf("Parse(%q) = %v, want ErrSyntax %q", src, err, msg)
		}
	}
}
