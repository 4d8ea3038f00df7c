// Package sqlmini parses a small SQL subset into query blocks — enough to
// express the SELECT-PROJECT-JOIN blocks the optimizer works on:
//
//	SELECT * FROM a, b, c
//	WHERE a.k = b.k AND b.k = c.k AND a.v < 100
//	ORDER BY a.k
//
// Keywords are case-insensitive. Join predicates are equalities between
// two qualified columns; filters compare a qualified column with a numeric
// literal using =, <, <=, > or >=.
package sqlmini

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Lexing/parsing errors wrap ErrSyntax.
var ErrSyntax = errors.New("sqlmini: syntax error")

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokStar
	tokOp // = < <= > >=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// The grammar is ASCII: bytes are classified one at a time with the tests
// below, and anything at or above utf8.RuneSelf is rejected by lex.
func isSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r' // \t \n \v \f \r
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// lex splits the input into tokens.
func lex(input string) ([]token, error) {
	n := len(input)
	// Statements average some four bytes per token; one allocation of that
	// size replaces the append growth series.
	toks := make([]token, 0, n/4+2)
	for i := 0; i < n; {
		c := input[i]
		switch {
		case isSpace(c):
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '.':
			toks = append(toks, token{tokDot, ".", i})
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == '=' || c == '<' || c == '>':
			j := i + 1
			if c != '=' && j < n && input[j] == '=' {
				j++
			}
			toks = append(toks, token{tokOp, input[i:j], i})
			i = j
		case isDigit(c):
			j := i
			seenDot := false
			for j < n {
				if isDigit(input[j]) {
					j++
					continue
				}
				if input[j] == '.' && !seenDot && j+1 < n && isDigit(input[j+1]) {
					seenDot = true
					j++
					continue
				}
				break
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < n && (isIdentStart(input[j]) || isDigit(input[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			// Decode so the error names the rune the caller typed, not its
			// first byte read as Latin-1.
			r, size := utf8.DecodeRuneInString(input[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, fmt.Errorf("%w: invalid UTF-8 byte 0x%02x at offset %d", ErrSyntax, c, i)
			}
			return nil, fmt.Errorf("%w: unexpected character %q at offset %d", ErrSyntax, r, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// isKeyword reports whether an identifier token equals the keyword
// (case-insensitive).
func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
