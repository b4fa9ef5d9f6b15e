package ctl

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelSpecs collects the lines of the shipped models that start with
// keyword (SPEC or LTLSPEC), without it, as fuzz seeds.
func modelSpecs(keyword string) []string {
	var out []string
	matches, _ := filepath.Glob(filepath.Join("..", "..", "models", "*.smv"))
	for _, path := range matches {
		file, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if rest, ok := strings.CutPrefix(line, keyword); ok {
				out = append(out, strings.TrimSpace(rest))
			}
		}
		file.Close()
	}
	return out
}

// checkOverCap asserts that f, accepted from src, is within the cap, and
// that negating it just often enough to pass the cap fails with the
// typed error.
func checkOverCap(t *testing.T, src string, f *Formula, parse func(string) (*Formula, error)) {
	t.Helper()
	n := expandedSize(f)
	if n > MaxFormulaSize {
		t.Fatalf("accepted %q, which expands to %d nodes", src, n)
	}
	big := strings.Repeat("!", MaxFormulaSize-n+1) + "(" + src + ")"
	var tooLarge *TooLargeError
	if _, err := parse(big); !errors.As(err, &tooLarge) {
		t.Fatalf("%q negated past the cap: got %v, want *TooLargeError", src, err)
	}
}

// FuzzCTLParse asserts the parser's safety contract: it never panics on
// arbitrary input, and for every input it accepts, printing and
// reparsing is stable — Parse(f.String()).String() == f.String(), so the
// printed form is a fixed point of the parse→print cycle (witness and
// checker memo keys rely on that stability). An accepted formula holds
// no LTL operator, survives Existential and PushNegations, and is
// within the size cap, past which the error is *TooLargeError.
func FuzzCTLParse(f *testing.F) {
	seeds := []string{
		"AG (tr1 -> AF ta1)",
		"E [p U q] & !EG r",
		"A [ x U EF (y | !z) ]",
		"EX (a = 1) | AG (b != off)",
		"!(p <-> q) -> A [ true U false ]",
		"EF (p & EX q)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range modelSpecs("SPEC") {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		formula, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := formula.String()
		reparsed, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own print %q: %v", src, printed, err)
		}
		if again := reparsed.String(); again != printed {
			t.Fatalf("print not a parse fixed point: %q -> %q -> %q", src, printed, again)
		}
		if !IsCTL(formula) {
			t.Fatalf("accepted %q, which holds an LTL operator", src)
		}
		PushNegations(Existential(formula))
		checkOverCap(t, src, formula, Parse)
	})
}

// FuzzLTLParse checks parser/printer round-tripping for LTL: any
// formula that parses must print to a string that reparses to a
// structurally equal formula with a stable printed form. An accepted
// formula holds no path quantifier and is within the size cap, past
// which the error is *TooLargeError.
func FuzzLTLParse(f *testing.F) {
	for _, s := range []string{
		"p", "G p", "F p", "X p", "p U q", "p R q", "p W q",
		"G (send -> F ack)", "p U q U r", "G p U q", "!G p",
		"x = a U y != b", "p <-> q -> r", "true U false",
		"(G) U q", "G F p & F G q", "!(p W q)",
	} {
		f.Add(s)
	}
	for _, s := range modelSpecs("LTLSPEC") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fm, err := ParseLTL(src)
		if err != nil {
			t.Skip()
		}
		printed := fm.String()
		g, err := ParseLTL(printed)
		if err != nil {
			t.Fatalf("String() of %q does not reparse: %q: %v", src, printed, err)
		}
		if !Equal(fm, g) {
			t.Fatalf("round trip changed %q: %q -> %q", src, printed, g)
		}
		if again := g.String(); again != printed {
			t.Fatalf("printing is not stable: %q vs %q", printed, again)
		}
		var quantified func(*Formula) bool
		quantified = func(f *Formula) bool {
			return f != nil && (f.Kind >= KEX && f.Kind <= KAF || quantified(f.L) || quantified(f.R))
		}
		if quantified(fm) {
			t.Fatalf("accepted %q, which holds a path quantifier", src)
		}
		checkOverCap(t, src, fm, ParseLTL)
	})
}
