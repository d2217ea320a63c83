package sql

import (
	"sort"

	"repro/internal/types"
)

// Shape-key bytes. A lifted literal is written as a placeholder tagged
// with its kind, so `-5` and `-'5'` (folded literal against unary minus
// over a string) never share a key. No token text contains any of these
// bytes, and no fingerprint starts with shapeTag, so shape keys and
// fingerprints can share one plan-cache map.
const (
	shapeTag    = 0x00
	shapeInt    = 0x01
	shapeFloat  = 0x02
	shapeString = 0x03
)

// Shape is a text SELECT as one lexer pass sees it: the plan-cache key
// that a repeated statement can be looked up by without building an
// AST. Two statements share a Key exactly when they have the same token
// sequence up to the values of their number and string literals (of the
// same kinds), so they parse to the same tree and fingerprint alike.
//
// A Shape's buffers are reused by each Of; the zero value is ready.
type Shape struct {
	// Key is the token sequence, keywords in canonical case, each token
	// followed by a space. Number and string literals are kind-tagged
	// placeholders, except LIMIT's count, which shapes the plan and is
	// written verbatim (as in FingerprintSelect).
	Key []byte
	// Lits are the lifted literal values in textual order: unsigned
	// numbers (a minus sign stays a token in Key) and fresh copies of
	// string values.
	Lits []types.Value
	// Src holds each lifted literal's token offset plus one, the
	// value the parser stores in Literal.Src.
	Src []int
}

// Of lexes src once into s. It reports false ("not shaped") for a
// statement whose first token is not SELECT, one that contains a nested
// SELECT or a '?' placeholder, and one with a lex error or a number that
// does not convert: those take the parse path, which reports any error
// in its own words.
func (s *Shape) Of(src string) bool {
	s.Key = append(s.Key[:0], shapeTag)
	s.Lits = s.Lits[:0]
	s.Src = s.Src[:0]
	l := Lexer{src: src}
	afterLimit := false
	for i := 0; ; i++ {
		t, err := l.Next()
		if err != nil {
			return false
		}
		if i == 0 && (t.Kind != TokKeyword || t.Text != "SELECT") {
			return false
		}
		switch {
		case t.Kind == TokEOF:
			return true
		case t.Kind == TokKeyword && t.Text == "SELECT" && i > 0, t.Kind == TokOp && t.Text == "?":
			return false
		case t.Kind == TokNumber && !afterLimit:
			v, err := numberValue(t.Text)
			if err != nil {
				return false
			}
			if v.K == types.KindFloat {
				s.Key = append(s.Key, shapeFloat)
			} else {
				s.Key = append(s.Key, shapeInt)
			}
			s.Lits = append(s.Lits, v)
			s.Src = append(s.Src, t.Pos+1)
		case t.Kind == TokString:
			s.Key = append(s.Key, shapeString)
			s.Lits = append(s.Lits, types.Str(t.Text))
			s.Src = append(s.Src, t.Pos+1)
		default:
			s.Key = append(s.Key, t.Text...)
		}
		s.Key = append(s.Key, ' ')
		afterLimit = t.Kind == TokKeyword && t.Text == "LIMIT"
	}
}

// ShapeBinding maps a fingerprint's parameters onto a shape's lifted
// literals: parameter i takes lifted value slots[i].lit, negated when
// slots[i].neg (a minus sign the parser folded into the literal).
type ShapeBinding struct {
	slots []shapeSlot
}

type shapeSlot struct {
	lit int
	neg bool
}

// BindShape binds s, the shape of a statement that parsed, to params,
// FingerprintSelect's parameters for that statement's AST. ok is false
// unless the two correspond one to one: every parameter was read from a
// lifted literal of the same kind and every lifted literal feeds exactly
// one parameter. A shape that does not bind is never cached, so its
// statements keep parsing.
func BindShape(s *Shape, params []*Literal) (b ShapeBinding, ok bool) {
	if len(params) != len(s.Lits) {
		return ShapeBinding{}, false
	}
	used := make([]bool, len(s.Lits))
	b.slots = make([]shapeSlot, len(params))
	for i, p := range params {
		j := sort.Search(len(s.Src), func(j int) bool { return s.Src[j] >= p.Src })
		if p.Param || p.Src == 0 || j == len(s.Src) || s.Src[j] != p.Src || used[j] ||
			s.Lits[j].K != p.Val.K || p.Neg && p.Val.K == types.KindString {
			return ShapeBinding{}, false
		}
		used[j] = true
		b.slots[i] = shapeSlot{lit: j, neg: p.Neg}
	}
	return b, true
}

// NumLits is the number of lifted literals the binding consumes.
func (b ShapeBinding) NumLits() int { return len(b.slots) }

// Literals builds fresh parameter literals, in fingerprint order, from
// lits: the Lits of a Shape with the bound key.
func (b ShapeBinding) Literals(lits []types.Value) []Literal {
	out := make([]Literal, len(b.slots))
	for i, sl := range b.slots {
		v := lits[sl.lit]
		if sl.neg {
			switch v.K {
			case types.KindInt:
				v = types.Int(-v.I)
			case types.KindFloat:
				v = types.Float(-v.F)
			}
		}
		out[i].Val = v
	}
	return out
}
