package ctl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"true", "true"},
		{"false", "false"},
		{"p", "p"},
		{"!p", "!p"},
		{"p & q", "p & q"},
		{"p | q & r", "p | q & r"},
		{"(p | q) & r", "(p | q) & r"},
		{"p -> q -> r", "p -> q -> r"}, // right assoc
		{"p <-> q", "p <-> q"},
		{"EX p", "EX p"},
		{"EF p", "EF p"},
		{"EG p", "EG p"},
		{"AX p", "AX p"},
		{"AF p", "AF p"},
		{"AG p", "AG p"},
		{"E [p U q]", "E [p U q]"},
		{"A [p U q]", "A [p U q]"},
		{"AG (req -> AF ack)", "AG (req -> AF ack)"},
		{"state = busy", "state = busy"},
		{"state != idle", "state != idle"},
		{"x = 3", "x = 3"},
		{"EG (p & EX q)", "EG (p & EX q)"},
		{"E [p & q U r | s]", "E [p & q U r | s]"},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := f.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"AG (tr1 -> AF ta1)",
		"!(p -> EX (q & !r))",
		"A [p | q U EG r]",
		"E [E [a U b] U EG c]",
		"AG AF (p <-> q)",
		"EF (state = granting & EX state = idle)",
	}
	// Path formulas: a U, R or W operand of E [ … ] or A [ … ] must
	// print parenthesized, at any depth of the operand's connectives.
	paths := []string{
		"E [(p U q) U r]",
		"E [p U (q U r)]",
		"E [(p R q) U r]",
		"A [p U (q W r)]",
		"E [p & (q U r) U s]",
	}
	for _, tc := range []struct {
		parse func(string) (*Formula, error)
		srcs  []string
	}{{Parse, srcs}, {ParsePath, paths}} {
		for _, s := range tc.srcs {
			f1, err := tc.parse(s)
			if err != nil {
				t.Fatalf("parse(%q): %v", s, err)
			}
			f2, err := tc.parse(f1.String())
			if err != nil {
				t.Errorf("re-parse(%q) of %q: %v", f1.String(), s, err)
				continue
			}
			if !Equal(f1, f2) {
				t.Errorf("round trip changed %q: %q", s, f2.String())
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"p &",
		"(p",
		"E [p q]",
		"E p U q]",
		"AG",
		"p @ q",
		"p = ",
		"->",
		"p <- q",
		"E [p U q", // missing ]
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestExistentialRewrites(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"AX p", "!EX !p"},
		{"EF p", "E [true U p]"},
		{"AF p", "!EG !p"},
		{"AG p", "!E [true U !p]"},
		{"A [p U q]", "!E [!q U !p & !q] & !EG !q"},
		{"p -> q", "!p | q"},
		{"p <-> q", "p & q | !p & !q"},
		{"EX p", "EX p"},
	}
	for _, c := range cases {
		f := MustParse(c.src)
		g := Existential(f)
		if got := g.String(); got != c.want {
			t.Errorf("Existential(%q) = %q, want %q", c.src, got, c.want)
		}
		if !IsExistentialBasis(g) {
			t.Errorf("Existential(%q) not in basis", c.src)
		}
	}
}

func TestExistentialDeep(t *testing.T) {
	f := MustParse("AG (req -> AF ack)")
	g := Existential(f)
	if !IsExistentialBasis(g) {
		t.Fatal("nested rewrite left non-basis operators")
	}
	if strings.Contains(g.String(), "AG") || strings.Contains(g.String(), "AF") {
		t.Fatalf("universal operators survive: %s", g)
	}
}

func TestPushNegations(t *testing.T) {
	f := MustParse("!(p & !q)")
	g := PushNegations(Existential(f))
	if g.String() != "!p | q" {
		t.Fatalf("PushNegations = %q", g)
	}
	// Temporal operators block the negation.
	h := PushNegations(Existential(MustParse("!EG p")))
	if h.String() != "!EG p" {
		t.Fatalf("PushNegations EG = %q", h)
	}
	// Double negation cancels through.
	d := PushNegations(Existential(MustParse("!!EX p")))
	if d.String() != "EX p" {
		t.Fatalf("double negation = %q", d)
	}
}

func TestAtoms(t *testing.T) {
	f := MustParse("AG (b -> AF (a & state = busy))")
	got := Atoms(f)
	want := []string{"a", "b", "state"}
	if len(got) != len(want) {
		t.Fatalf("Atoms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Atoms = %v, want %v", got, want)
		}
	}
}

func TestAndNOrN(t *testing.T) {
	if AndN().String() != "true" || OrN().String() != "false" {
		t.Fatal("empty fold wrong")
	}
	f := AndN(Atom("a"), Atom("b"), Atom("c"))
	if f.String() != "a & b & c" {
		t.Fatalf("AndN = %s", f)
	}
}

func TestIsPropositional(t *testing.T) {
	if !IsPropositional(MustParse("p & (q | !r)")) {
		t.Fatal("propositional misclassified")
	}
	if IsPropositional(MustParse("p & EX q")) {
		t.Fatal("temporal misclassified")
	}
}

func TestSizeAndEqual(t *testing.T) {
	f := MustParse("EX (p & q)")
	if Size(f) != 4 {
		t.Fatalf("Size = %d", Size(f))
	}
	if !Equal(f, MustParse("EX (p & q)")) {
		t.Fatal("Equal false negative")
	}
	if Equal(f, MustParse("EX (p | q)")) {
		t.Fatal("Equal false positive")
	}
}

// nestedIff is ((p <-> q0) <-> q1) … nested depth times: each level
// doubles the expanded size.
func nestedIff(depth int) string {
	s := "p"
	for i := 0; i < depth; i++ {
		s = fmt.Sprintf("(%s <-> q%d)", s, i)
	}
	return s
}

func TestFormulaSizeCap(t *testing.T) {
	au := "p"
	for i := 0; i < 8; i++ {
		au = "A [p U " + au + "]"
	}
	over := []struct {
		name  string
		parse func(string) (*Formula, error)
		src   string
	}{
		{"CTL nested <-> depth 30", Parse, nestedIff(30)},
		{"LTL nested <-> depth 30", ParseLTL, nestedIff(30)},
		{"nested A [p U …] depth 8", Parse, au},
		{"EX chain above the cap", Parse, strings.Repeat("EX ", MaxFormulaSize) + "p"},
		{"X chain above the cap", ParseLTL, strings.Repeat("X ", MaxFormulaSize) + "p"},
		{"negations nested 100000 deep", Parse, strings.Repeat("!", 100000) + "p"},
		{"W nested depth 12", ParseLTL, strings.Repeat("p W (", 12) + "q" + strings.Repeat(")", 12)},
		{"path formula", ParsePath, "G F (" + nestedIff(12) + ")"},
	}
	for _, c := range over {
		_, err := c.parse(c.src)
		var tooLarge *TooLargeError
		if !errors.As(err, &tooLarge) {
			t.Errorf("%s: got %v, want *TooLargeError", c.name, err)
		}
	}
	// The bound is exact: EX^n p expands to n+1 nodes.
	if _, err := Parse(strings.Repeat("EX ", MaxFormulaSize-1) + "p"); err != nil {
		t.Fatalf("EX chain at the cap: %v", err)
	}
	if f := MustParse(nestedIff(7)); expandedSize(f) != 8<<7-7 {
		t.Fatalf("nested <-> of depth 7 expands to %d nodes, want %d", expandedSize(f), 8<<7-7)
	}
	// For CTL the count is the tree size of Existential's result.
	for _, src := range []string{"AG !(a0 & a1) & A [p U q]", "AX p -> AF (q <-> EF r)", nestedIff(5)} {
		f := MustParse(src)
		if got, want := expandedSize(f), Size(Existential(f)); got != want {
			t.Errorf("%s: expandedSize %d, Existential's tree has %d nodes", src, got, want)
		}
	}
}
