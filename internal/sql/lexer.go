// Package sql implements the MySQL-flavoured SQL subset that PolarDB-X's
// CN layer accepts in this reproduction: DDL (CREATE TABLE with
// PARTITIONS and TABLEGROUP extensions, CREATE [GLOBAL] INDEX), DML
// (INSERT/UPDATE/DELETE) and SELECT with joins, aggregation, grouping,
// ordering and limits — enough to express the sysbench, TPC-C and TPC-H
// workloads the paper evaluates.
package sql

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// ErrSyntax is wrapped by every lexer and parser error, so a caller can
// tell a statement the parser rejected from one that failed to execute.
var ErrSyntax = errors.New("sql: syntax error")

// syntaxError carries a lexer or parser message verbatim and unwraps to
// ErrSyntax.
type syntaxError struct{ msg string }

func (e *syntaxError) Error() string { return e.msg }
func (e *syntaxError) Unwrap() error { return ErrSyntax }

func syntaxErrorf(format string, args ...any) error {
	return &syntaxError{msg: fmt.Sprintf(format, args...)}
}

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokOp      // operators and punctuation
	TokKeyword // recognized keyword (uppercased)
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // keywords uppercased; identifiers as written
	Pos  int    // byte offset
}

// keywords maps each keyword to itself: a lookup through a stack buffer
// of the upper-cased word yields the canonical constant without
// allocating.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "INSERT", "INTO",
		"VALUES", "UPDATE", "SET", "DELETE", "CREATE",
		"TABLE", "INDEX", "PRIMARY", "KEY", "ON",
		"AND", "OR", "NOT", "AS", "JOIN", "INNER",
		"LEFT", "GROUP", "BY", "ORDER", "HAVING",
		"LIMIT", "ASC", "DESC", "NULL", "TRUE",
		"FALSE", "IN", "BETWEEN", "LIKE", "COUNT",
		"SUM", "AVG", "MIN", "MAX", "DISTINCT",
		"PARTITIONS", "TABLEGROUP", "GLOBAL", "CLUSTERED",
		"INT", "BIGINT", "FLOAT", "DOUBLE", "DECIMAL",
		"VARCHAR", "CHAR", "TEXT", "BOOL", "DATE",
		"EXISTS", "IF", "CASE", "WHEN", "THEN",
		"ELSE", "END", "IS", "EXPLAIN", "ANALYZE",
	} {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (PARTITIONS,
// TABLEGROUP); a longer word is an identifier without a lookup.
const maxKeywordLen = 10

// keyword returns the canonical keyword spelled by word in any case, or
// "" when word is not a keyword.
func keyword(word string) string {
	if len(word) > maxKeywordLen {
		return ""
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// Lexer tokenizes SQL text. Identifier, number and operator tokens are
// substrings of the source; only a string literal is copied out (see
// lexString).
type Lexer struct {
	src string
	pos int
}

// NewLexer wraps a SQL string.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if kw := keyword(text); kw != "" {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' {
				if seenDot {
					break
				}
				seenDot = true
				l.pos++
				continue
			}
			if !isDigit(ch) && ch != 'e' && ch != 'E' {
				break
			}
			if ch == 'e' || ch == 'E' {
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'' || c == '"':
		return l.lexString(c)
	default:
		if l.pos+1 < len(l.src) {
			if op := twoCharOp(c, l.src[l.pos+1]); op != "" {
				l.pos += 2
				return Token{Kind: TokOp, Text: op, Pos: start}, nil
			}
		}
		if strings.IndexByte("()+-*/,=<>.;%?", c) >= 0 {
			l.pos++
			return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
		}
		return Token{}, syntaxErrorf("sql: unexpected character %q at %d", c, start)
	}
}

// twoCharOp returns the two-character operator spelled by a, b, or "".
func twoCharOp(a, b byte) string {
	switch {
	case a == '<' && b == '=':
		return "<="
	case a == '>' && b == '=':
		return ">="
	case a == '<' && b == '>':
		return "<>"
	case a == '!' && b == '=':
		return "!="
	case a == '|' && b == '|':
		return "||"
	}
	return ""
}

// lexString scans a quoted literal whose opening quote is at l.pos. The
// token's text is always a fresh copy, never a view of the source: a
// row stored from an INSERT would otherwise pin the whole statement.
func (l *Lexer) lexString(quote byte) (Token, error) {
	start := l.pos
	l.pos++
	body := l.pos
	// Fast path: no escapes, so the value is one contiguous run.
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if ch == '\\' || ch == quote && l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
			break
		}
		if ch == quote {
			text := strings.Clone(l.src[body:l.pos])
			l.pos++
			return Token{Kind: TokString, Text: text, Pos: start}, nil
		}
		l.pos++
	}
	var sb strings.Builder
	sb.WriteString(l.src[body:l.pos])
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if ch == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				sb.WriteByte(quote) // doubled quote escape
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		if ch == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			sb.WriteByte(l.src[l.pos])
			l.pos++
			continue
		}
		sb.WriteByte(ch)
		l.pos++
	}
	return Token{}, syntaxErrorf("sql: unterminated string at %d", start)
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsSpace(rune(c)) {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
func isDigit(c byte) bool     { return c >= '0' && c <= '9' }

// Tokenize returns all tokens.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	out := make([]Token, 0, len(src)/4+4)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
