package ctl

import (
	"fmt"
	"unicode"
)

// token kinds for the formula lexer. Operator words (EX, AG, E, A, U, X,
// G, …) lex as plain identifiers; the parser gives them meaning by
// position and by logic.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tLParen
	tRParen
	tLBracket
	tRBracket
	tNot
	tAnd
	tOr
	tImp
	tIff
	tEq
	tNeq
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes a formula string of any of the three logics.
type lexer struct {
	src  []rune
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '(':
			l.pos++
			l.emit(tLParen, "(", start)
		case c == ')':
			l.pos++
			l.emit(tRParen, ")", start)
		case c == '[':
			l.pos++
			l.emit(tLBracket, "[", start)
		case c == ']':
			l.pos++
			l.emit(tRBracket, "]", start)
		case c == '&':
			l.pos++
			l.emit(tAnd, "&", start)
		case c == '|':
			l.pos++
			l.emit(tOr, "|", start)
		case c == '!':
			l.pos++
			if l.peek() == '=' {
				l.pos++
				l.emit(tNeq, "!=", start)
			} else {
				l.emit(tNot, "!", start)
			}
		case c == '=':
			l.pos++
			l.emit(tEq, "=", start)
		case c == '-':
			l.pos++
			if l.peek() != '>' {
				return nil, fmt.Errorf("ctl: position %d: expected '>' after '-'", start)
			}
			l.pos++
			l.emit(tImp, "->", start)
		case c == '<':
			l.pos++
			if l.peek() != '-' {
				return nil, fmt.Errorf("ctl: position %d: expected '<->'", start)
			}
			l.pos++
			if l.peek() != '>' {
				return nil, fmt.Errorf("ctl: position %d: expected '<->'", start)
			}
			l.pos++
			l.emit(tIff, "<->", start)
		case unicode.IsDigit(c):
			for l.pos < len(l.src) && unicode.IsDigit(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tNumber, string(l.src[start:l.pos]), start)
		case unicode.IsLetter(c) || c == '_':
			for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) ||
				unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.emit(tIdent, string(l.src[start:l.pos]), start)
		default:
			return nil, fmt.Errorf("ctl: position %d: unexpected character %q", start, c)
		}
	}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
}

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}
