package smv

import (
	"strings"
	"testing"

	"repro/internal/ltl"
	"repro/internal/mc"
)

func parseOK(t *testing.T, src string) *Module {
	t.Helper()
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// checkLTL runs the one-call path and fails the test on any error
// (including counterexample replay failures).
func checkLTL(t *testing.T, src, spec string) (bool, *LTLProduct) {
	t.Helper()
	c := compileOK(t, src)
	f, err := ltl.Parse(spec)
	if err != nil {
		t.Fatalf("ltl parse %q: %v", spec, err)
	}
	holds, p, _, err := c.CheckLTLSpec(f, spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return holds, p
}

const toggleSrc = `
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
`

func TestLTLSpecSection(t *testing.T) {
	m := parseOK(t, `
MODULE main
VAR x : boolean;
ASSIGN init(x) := FALSE; next(x) := !x;
SPEC AG AF x
LTLSPEC G F x
LTLSPEC G (x -> X !x)
`)
	if len(m.Specs) != 1 {
		t.Fatalf("want 1 CTL spec, got %d", len(m.Specs))
	}
	if len(m.LTLSpecs) != 2 {
		t.Fatalf("want 2 LTL specs, got %d", len(m.LTLSpecs))
	}
	if got := m.LTLSpecs[0].Formula.String(); got != "G F x" {
		t.Errorf("spec 0 formula = %q", got)
	}
	if got := m.LTLSpecs[1].Formula.String(); got != "G (x -> X !x)" {
		t.Errorf("spec 1 formula = %q", got)
	}
	// Source is the token-joined text; it must reparse to the same
	// formula.
	back, err := ltl.Parse(m.LTLSpecs[1].Source)
	if err != nil || !ltl.Equal(back, m.LTLSpecs[1].Formula) {
		t.Errorf("source %q does not reparse to the formula: %v", m.LTLSpecs[1].Source, err)
	}
}

func TestLTLSpecParseError(t *testing.T) {
	bad := []string{
		"MODULE main VAR x : boolean; LTLSPEC",
		"MODULE main VAR x : boolean; LTLSPEC G (x",
		"MODULE main VAR x : boolean; LTLSPEC AG x", // AG is CTL, parses as two atoms
	}
	for _, src := range bad {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("ParseModule(%q) should fail", src)
		}
	}
}

func TestLTLSpecOnlyInMain(t *testing.T) {
	_, err := CompileSource(`
MODULE main
VAR c : counter;
MODULE counter
VAR x : boolean;
ASSIGN next(x) := !x;
LTLSPEC G F x
`, Config{})
	if err == nil || !strings.Contains(err.Error(), "LTLSPEC is only allowed in main") {
		t.Fatalf("want LTLSPEC-in-submodule error, got %v", err)
	}
}

func TestLTLToggleVerdicts(t *testing.T) {
	cases := []struct {
		spec string
		want bool
	}{
		{"G F x", true},
		{"G F !x", true},
		{"G (x -> X !x)", true},
		{"G (!x -> X x)", true},
		{"!x", true},     // initial state
		{"X x", true},    // second state
		{"G x", false},   // x is false initially
		{"F G x", false}, // x toggles forever
		{"x U !x", true}, // immediately: !x holds at position 0
		{"!x U x", true}, // holds at position 1
		{"G (x -> X x)", false},
	}
	for _, c := range cases {
		if got, _ := checkLTL(t, toggleSrc, c.spec); got != c.want {
			t.Errorf("%s: got %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestLTLCounterexampleIsLasso(t *testing.T) {
	c := compileOK(t, toggleSrc)
	f := ltl.MustParse("F G x")
	holds, p, cex, err := c.CheckLTLSpec(f, "F G x")
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Fatal("F G x should fail on the toggle")
	}
	if cex == nil || !cex.IsLasso() {
		t.Fatal("want a lasso counterexample")
	}
	// The rendered trace must decode model variables and hide the
	// tableau bits.
	out := p.FormatLassoByVars(cex)
	if !strings.Contains(out, "x=") {
		t.Errorf("trace does not decode x:\n%s", out)
	}
	if strings.Contains(out, "_ltl") {
		t.Errorf("trace leaks tableau variables:\n%s", out)
	}
	if !strings.Contains(out, "↻") {
		t.Errorf("trace does not mark the cycle start:\n%s", out)
	}
}

func TestLTLDefineAtom(t *testing.T) {
	src := `
MODULE main
VAR s : {idle, req, ack};
ASSIGN
  init(s) := idle;
  next(s) := case
    s = idle : {idle, req};
    s = req  : ack;
    s = ack  : idle;
  esac;
DEFINE requesting := s = req;
FAIRNESS requesting
`
	if got, _ := checkLTL(t, src, "G (requesting -> F s = ack)"); !got {
		t.Error("G (requesting -> F s = ack) should hold")
	}
	if got, _ := checkLTL(t, src, "G F requesting"); !got {
		t.Error("G F requesting should hold under FAIRNESS requesting")
	}
	if got, _ := checkLTL(t, src, "F G requesting"); got {
		t.Error("F G requesting should fail (ack always follows)")
	}
}

func TestLTLEqNeqAtoms(t *testing.T) {
	src := `
MODULE main
VAR n : 0..3;
ASSIGN
  init(n) := 0;
  next(n) := case n = 3 : 0; TRUE : n + 1; esac;
`
	cases := []struct {
		spec string
		want bool
	}{
		{"G F n = 0", true},
		{"G F n = 3", true},
		{"G (n = 1 -> X n = 2)", true},
		{"G n != 2", false},
		{"n = 0 U n = 1", true},
	}
	for _, c := range cases {
		if got, _ := checkLTL(t, src, c.spec); got != c.want {
			t.Errorf("%s: got %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestLTLUnknownAtom(t *testing.T) {
	c := compileOK(t, toggleSrc)
	_, err := c.Product(ltl.MustParse("G y"), "G y")
	if err == nil || !strings.Contains(err.Error(), "unknown identifier") {
		t.Fatalf("want unknown-identifier error, got %v", err)
	}
	if _, err := c.Product(ltl.MustParse("G x"), "G x"); err != nil {
		t.Fatalf("product rejects declared atom: %v", err)
	}
}

func TestLTLTableauNameCollision(t *testing.T) {
	// A model may legally declare _ltl0; the tableau must step aside.
	src := `
MODULE main
VAR _ltl0 : boolean;
ASSIGN init(_ltl0) := FALSE; next(_ltl0) := !_ltl0;
`
	holds, p := checkLTL(t, src, "G F _ltl0")
	if !holds {
		t.Fatal("G F _ltl0 should hold on the toggle")
	}
	if len(p.ElemVars) == 0 {
		t.Fatal("tableau reserved no variables")
	}
	for _, iv := range p.ElemVars {
		if p.S.Vars[iv].Name == "_ltl0" {
			t.Fatal("tableau variable collides with the declared _ltl0")
		}
	}
}

func TestLTLProductJoinsPartition(t *testing.T) {
	// The tableau clusters must join the conjunctive partition, not
	// bypass it: a multi-variable model with a temporal spec gets at
	// least one more cluster than the plain compile.
	src := `
MODULE main
VAR x : boolean; y : boolean;
ASSIGN
  init(x) := FALSE; next(x) := !x;
  init(y) := FALSE; next(y) := x;
`
	c := compileOK(t, src)
	p, err := c.Product(ltl.MustParse("G (x -> F y)"), "")
	if err != nil {
		t.Fatal(err)
	}
	if !p.S.HasClusters() {
		t.Fatal("product lost the conjunctive partition")
	}
	if p.S.NumClusters() <= c.S.NumClusters() {
		t.Fatalf("product has %d clusters, plain model %d: tableau clusters missing",
			p.S.NumClusters(), c.S.NumClusters())
	}
	if len(p.S.Fair) == 0 {
		t.Fatal("product has no generalized-Büchi fairness sets")
	}
	ch := mc.New(p.S)
	defer ch.Close()
	holds, _, err := p.Check(ch)
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Fatal("G (x -> F y) should hold")
	}
}

func TestLTLProcessProductDisjunctive(t *testing.T) {
	// An interleaved model checked with the disjunctive partition
	// enabled must agree with the default conjunctive path.
	src := `
MODULE main
VAR p0 : process worker(turn, 0);
    p1 : process worker(turn, 1);
    turn : 0..1;
LTLSPEC G (turn = 0 -> F turn = 1)
MODULE worker(turn, id)
ASSIGN
  next(turn) := case turn = id : 1 - id; TRUE : turn; esac;
FAIRNESS running
`
	var verdicts []bool
	for _, disj := range []bool{false, true} {
		c, err := CompileSource(src, Config{Disjunctive: disj})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Module.LTLSpecs) != 1 {
			t.Fatalf("want 1 LTL spec after flatten, got %d", len(c.Module.LTLSpecs))
		}
		sp := c.Module.LTLSpecs[0]
		p, err := c.Product(sp.Formula, sp.Source)
		if err != nil {
			t.Fatal(err)
		}
		if p.S.NumDisjuncts() == 0 {
			t.Fatal("process product did not emit disjuncts")
		}
		if p.S.DisjunctEnabled() != disj {
			t.Fatalf("product disjunctive image enabled = %v, want the model's %v", p.S.DisjunctEnabled(), disj)
		}
		ch := mc.New(p.S)
		holds, cex, err := p.Check(ch)
		if err != nil {
			t.Fatal(err)
		}
		if cex != nil {
			if err := p.ReplayCounterexample(cex); err != nil {
				t.Fatal(err)
			}
		}
		ch.Close()
		verdicts = append(verdicts, holds)
	}
	if verdicts[0] != verdicts[1] {
		t.Fatalf("conjunctive says %v, disjunctive says %v", verdicts[0], verdicts[1])
	}
	if !verdicts[0] {
		t.Fatal("G (turn = 0 -> F turn = 1) should hold under FAIRNESS running")
	}
}
