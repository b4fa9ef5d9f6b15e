package ltl

import (
	"testing"

	"repro/internal/ctl"
)

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"p", "p"},
		{"!p", "!p"},
		{"G p", "G p"},
		{"F p", "F p"},
		{"X p", "X p"},
		{"p U q", "p U q"},
		{"p R q", "p R q"},
		{"p W q", "p W q"},
		{"G (send -> F ack)", "G (send -> F ack)"},
		{"p U q U r", "p U q U r"},     // right associative
		{"(p U q) U r", "(p U q) U r"}, // forced left nesting
		{"p U q & r", "p U q & r"},     // U binds tighter than &
		{"(p & q) U r", "(p & q) U r"}, // & forced under U
		{"G p U q", "G p U q"},         // unary binds tighter: (G p) U q
		{"G (p U q)", "G (p U q)"},     // explicit grouping preserved
		{"p -> q -> r", "p -> q -> r"}, // right associative
		{"(p -> q) -> r", "(p -> q) -> r"},
		{"x = a U y != b", "x = a U y != b"},
		{"true U false", "true U false"},
		{"G F p", "G F p"},
		{"!G p", "!G p"},
		{"p <-> q", "p <-> q"},
		{"(G) U q", "(G) U q"}, // atom literally named G
	}
	for _, c := range cases {
		f, err := ctl.ParseLTL(c.in)
		if err != nil {
			t.Fatalf("ctl.ParseLTL(%q): %v", c.in, err)
		}
		if got := f.String(); got != c.want {
			t.Errorf("ctl.ParseLTL(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Round trip: parse of the printed form must be structurally equal.
		g, err := ctl.ParseLTL(f.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", f.String(), err)
		}
		if !ctl.Equal(f, g) {
			t.Errorf("round trip of %q changed the formula: %q", c.in, g)
		}
	}
}

func TestParseAssociativity(t *testing.T) {
	f := ctl.MustParseLTL("p U q U r")
	if f.Kind != ctl.KU || f.R.Kind != ctl.KU {
		t.Fatalf("p U q U r should be right associative, got %s with root L=%s R=%s", f, f.L, f.R)
	}
	f = ctl.MustParseLTL("p U q & r")
	if f.Kind != ctl.KAnd || f.L.Kind != ctl.KU {
		t.Fatalf("p U q & r should parse as (p U q) & r, got kind %v", f.Kind)
	}
	f = ctl.MustParseLTL("G p U q")
	if f.Kind != ctl.KU || f.L.Kind != ctl.KG {
		t.Fatalf("G p U q should parse as (G p) U q, got %s", f)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "p U", "(p", "p &", "p = ", "p ->", "p q", "p <- q"} {
		if _, err := ctl.ParseLTL(src); err == nil {
			t.Errorf("ctl.ParseLTL(%q) should fail", src)
		}
	}
}

func TestNNF(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"!G p", "true U !p"},  // ¬G p = F ¬p
		{"!F p", "false R !p"}, // ¬F p = G ¬p
		{"!(p U q)", "!p R !q"},
		{"!(p R q)", "!p U !q"},
		{"!X p", "X !p"},
		{"!!p", "p"},
		{"p -> q", "!p | q"},
		{"!(p -> q)", "p & !q"},
		{"p W q", "q R (p | q)"},
		{"!(p W q)", "!q U (!p & !q)"},
		{"G p", "false R p"},
		{"F p", "true U p"},
		{"!(x = a)", "x != a"},
		{"!(x != a)", "x = a"},
		{"!true", "false"},
	}
	for _, c := range cases {
		got := NNF(ctl.MustParseLTL(c.in)).String()
		if got != c.want {
			t.Errorf("NNF(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestTranslateElems(t *testing.T) {
	// ¬(G (send -> F ack)) = F (send ∧ G ¬ack)
	//                      = true U (send & (false R !ack))
	// Elementary: the U node and the R node.
	tab := Translate(ctl.MustParseLTL("G (send -> F ack)"))
	if len(tab.Elem) != 2 {
		t.Fatalf("expected 2 elementary subformulas, got %d: %v", len(tab.Elem), tab.Elem)
	}
	if tab.NumFair() != 1 {
		t.Fatalf("expected 1 fairness term, got %d", tab.NumFair())
	}
	// Duplicated subformulas share one variable.
	tab = Translate(ctl.MustParseLTL("!(F p & F p)"))
	if len(tab.Elem) != 1 {
		t.Fatalf("duplicate F p should collapse to 1 elem, got %d", len(tab.Elem))
	}
}

func TestSatBoolAlgebra(t *testing.T) {
	// ψ = NNF(¬spec) with spec = G p is true U !p. In a state where
	// p=true, sat(ψ) should equal the promise variable; with p=false it
	// is true outright.
	tab := Translate(ctl.MustParseLTL("G p"))
	if len(tab.Elem) != 1 || tab.Elem[0].Kind != ctl.KU {
		t.Fatalf("unexpected tableau %v", tab.Elem)
	}
	alg := func(p, v bool) Algebra[bool] {
		return Algebra[bool]{
			True: true, False: false,
			Not:  func(b bool) bool { return !b },
			And:  func(a, b bool) bool { return a && b },
			Or:   func(a, b bool) bool { return a || b },
			Atom: func(f *ctl.Formula) (bool, error) { return p, nil },
			Elem: func(int) bool { return v },
		}
	}
	for _, tc := range []struct{ p, v, want bool }{
		{true, true, true},   // promise carried
		{true, false, false}, // p holds, no promise: ¬p never found
		{false, true, true},  // ¬p found now
		{false, false, true},
	} {
		got, err := Sat(tab, tab.Formula, alg(tc.p, tc.v))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("sat(ψ) with p=%v v=%v: got %v want %v", tc.p, tc.v, got, tc.want)
		}
	}
}
