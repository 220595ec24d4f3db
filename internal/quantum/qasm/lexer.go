// Package qasm implements an OpenQASM 2.0 reader and writer for the subset
// used by QRIO jobs: version header, include, qreg/creg declarations, the
// qelib1 gate vocabulary, custom gate definitions, barrier, reset and
// measure. Users submit circuits to QRIO as QASM files (paper §3.2); this
// package is the REST-facing front end for them.
package qasm

import (
	"fmt"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLBracket // [
	tokRBracket // ]
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokSemi     // ;
	tokComma    // ,
	tokArrow    // ->
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
)

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) error(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch {
		case ch == '\n':
			l.line++
			l.pos++
		case ch == ' ' || ch == '\t' || ch == '\r':
			l.pos++
		case ch == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	start := l.pos
	ch := l.src[l.pos]
	switch {
	case unicode.IsLetter(rune(ch)) || ch == '_':
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], l.line}, nil
	case unicode.IsDigit(rune(ch)) || ch == '.':
		seenE := false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if unicode.IsDigit(rune(c)) || c == '.' {
				l.pos++
				continue
			}
			if (c == 'e' || c == 'E') && !seenE {
				seenE = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
		return token{tokNumber, l.src[start:l.pos], l.line}, nil
	case ch == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.error("unterminated string")
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return token{tokString, text, l.line}, nil
	case ch == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{tokArrow, "->", l.line}, nil
	}
	l.pos++
	if k := punct[ch]; k != tokEOF {
		return token{k, l.src[start:l.pos], l.line}, nil
	}
	return token{}, l.error("unexpected character %q", string(ch))
}

// punct is the kind of every one-character token; tokEOF marks the bytes
// that are not one.
var punct = [256]tokenKind{
	'[': tokLBracket, ']': tokRBracket, '(': tokLParen, ')': tokRParen,
	'{': tokLBrace, '}': tokRBrace, ';': tokSemi, ',': tokComma,
	'+': tokPlus, '-': tokMinus, '*': tokStar, '/': tokSlash, '^': tokCaret,
}

func isIdentChar(c byte) bool {
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_'
}

// tokenize lexes the whole source up front; QASM files are small.
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
