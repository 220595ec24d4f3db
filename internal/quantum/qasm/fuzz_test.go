package qasm

import (
	"fmt"
	"reflect"
	"testing"
	"unicode"

	"qrio/internal/quantum/circuit"
	"qrio/internal/workload"
)

// refLexer is the lexer as it stood before punctuation was read from a
// package-level table, kept verbatim (a map literal built per token) as the
// reference FuzzParse holds tokenize to. Do not optimise it.
type refLexer struct {
	src  string
	pos  int
	line int
}

func (l *refLexer) error(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *refLexer) next() (token, error) {
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
	simple := map[byte]tokenKind{
		'[': tokLBracket, ']': tokRBracket, '(': tokLParen, ')': tokRParen,
		'{': tokLBrace, '}': tokRBrace, ';': tokSemi, ',': tokComma,
		'+': tokPlus, '-': tokMinus, '*': tokStar, '/': tokSlash, '^': tokCaret,
	}
	if k, ok := simple[ch]; ok {
		return token{k, string(ch), l.line}, nil
	}
	return token{}, l.error("unexpected character %q", string(ch))
}

func refTokenize(src string) ([]token, error) {
	l := &refLexer{src: src, line: 1}
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

// FuzzParse holds the lexer to its reference token for token (kinds, texts,
// lines and errors), and the parser to its writer: a circuit Dump accepts
// parses back to a deep-equal circuit.
func FuzzParse(f *testing.F) {
	f.Add(bvSample)
	f.Add("OPENQASM 2.0;\nqreg q[2];\ngate g(a) x,y { u1(a/2) x; cx x,y; barrier x,y; }\ng(-pi^2) q[1],q[0];\n")
	f.Add("OPENQASM 2.0;\nqreg q[1];\nu1(1.5e+2*(3-1)) q[0]; @")
	f.Add("OPENQASM 2.0;\ninclude \"unterminated")
	for _, c := range []*circuit.Circuit{workload.QFT(4), workload.Grover(), workload.QAOARing(5, 1, 7)} {
		src, err := Dump(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := tokenize(src)
		want, wantErr := refTokenize(src)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("tokenize(%q) = %v, %v; the reference lexer gives %v, %v", src, got, gotErr, want, wantErr)
		}
		c, err := Parse(src)
		if err != nil {
			return
		}
		text, err := Dump(c)
		if err != nil {
			return
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Dump output does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("parse → Dump → parse changed the circuit:\n%s\nfirst  %+v\nsecond %+v", text, c, back)
		}
	})
}
