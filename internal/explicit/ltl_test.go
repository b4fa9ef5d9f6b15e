package explicit

import (
	"testing"

	"repro/internal/ctl"
	"repro/internal/kripke"
)

// lassoAtom evaluates atoms against a per-position truth assignment.
func lassoAtom(rows []map[string]bool) func(int, *ctl.Formula) (bool, error) {
	return func(pos int, lit *ctl.Formula) (bool, error) {
		if lit.Kind != ctl.KAtom {
			return false, nil
		}
		return rows[pos][lit.Name], nil
	}
}

func TestEvalLasso(t *testing.T) {
	// Positions: 0 (stem, p) then cycle 1 → 2 → 1 → 2 ... with p at 2
	// and q at 1.
	rows := []map[string]bool{
		{"p": true},
		{"q": true},
		{"p": true},
	}
	atom := lassoAtom(rows)
	cases := []struct {
		f    string
		want bool
	}{
		{"p", true},
		{"q", false},
		{"X q", true},
		{"X X p", true},
		{"G p", false},
		{"F q", true},
		{"G F p", true},  // p recurs at position 2
		{"G F q", true},  // q recurs at position 1
		{"F G p", false}, // q-positions lack p forever
		{"p U q", true},
		{"q U p", true}, // p holds immediately
		{"G (q -> X p)", true},
		{"G (p -> X q)", true},
		{"p W q", true},
		{"q R (p | q)", true},
		{"G (p | q)", true},
		{"F (p & q)", false},
		{"!G p", true},
		{"p -> X q", true},
		{"p <-> q", false},
	}
	for _, c := range cases {
		got, err := EvalLasso(ctl.MustParseLTL(c.f), len(rows), 1, atom)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("EvalLasso(%s) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEvalLassoShapeErrors(t *testing.T) {
	atom := func(int, *ctl.Formula) (bool, error) { return true, nil }
	if _, err := EvalLasso(ctl.MustParseLTL("p"), 0, 0, atom); err == nil {
		t.Error("empty lasso should error")
	}
	if _, err := EvalLasso(ctl.MustParseLTL("p"), 2, 2, atom); err == nil {
		t.Error("cycle start past the end should error")
	}
}

// twoState builds 0→1, 1→0, 1→1 with p at 0, q at 1, init 0.
func twoState() *kripke.Explicit {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.AddEdge(1, 1)
	e.Label(0, "p")
	e.Label(1, "q")
	e.AddInit(0)
	return e
}

func TestCheckLTLVerdicts(t *testing.T) {
	e := twoState()
	cases := []struct {
		f    string
		want bool
	}{
		{"F q", true}, // every path moves to 1 at step 1
		{"X q", true},
		{"G p", false},    // step 1 is ¬p
		{"G F q", true},   // 1 is revisited forever on every path
		{"G F p", false},  // the path 0,1,1,1,... starves p
		{"F G q", false},  // the alternating path never settles in q
		{"X X p", false},  // 0,1,1 violates
		{"!X X p", false}, // 0,1,0 satisfies X X p: neither verdict is universal
		{"p U q", true},
		{"G (p -> X q)", true},
		{"G (q -> F p)", false}, // stay at 1 forever
		{"p W q", true},
		{"true", true},
		{"false", false},
	}
	for _, c := range cases {
		holds, cex, err := CheckLTL(e, ctl.MustParseLTL(c.f))
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if holds != c.want {
			t.Errorf("CheckLTL(%s) = %v, want %v", c.f, holds, c.want)
		}
		if holds && cex != nil {
			t.Errorf("%s: counterexample on satisfied spec", c.f)
		}
		if !holds {
			if cex == nil {
				t.Fatalf("%s: no counterexample", c.f)
			}
			replayCounterexample(t, e, c.f, cex)
		}
	}
}

// Counterpart of TestCheckerRangeVarNoBooleanFallback for the LTL
// path: comparisons against 0/1 on a value-labeled variable must use
// the exact "name=value" labels, never the bare-name boolean reading.
func TestCheckLTLRangeVarAtoms(t *testing.T) {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(0, "n=0")
	e.Label(1, "n=1")
	e.AddInit(0)
	cases := []struct {
		f    string
		want bool
	}{
		{"n = 0", true},
		{"F n = 1", true},
		{"G n = 0", false},   // n leaves 0 at step 1
		{"F G n != 0", true}, // and stays at 1 forever
		{"G n != 1", false},
	}
	for _, c := range cases {
		holds, cex, err := CheckLTL(e, ctl.MustParseLTL(c.f))
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if holds != c.want {
			t.Errorf("CheckLTL(%s) = %v, want %v", c.f, holds, c.want)
		}
		if !holds && cex == nil {
			t.Fatalf("%s: no counterexample", c.f)
		}
	}
}

func TestCheckLTLFairness(t *testing.T) {
	// 0→0, 0→1, 1→1; p at 1; fairness forces visiting 1 infinitely
	// often, so every fair path eventually stays at 1.
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 0)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(1, "p")
	e.AddInit(0)

	holds, _, err := CheckLTL(e, ctl.MustParseLTL("F p"))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("without fairness, 0,0,0,... should falsify F p")
	}

	e.AddFairSet("visit1", []bool{false, true})
	for _, c := range []struct {
		f    string
		want bool
	}{
		{"F p", true},
		{"F G p", true},
		{"G p", false}, // the initial state itself lacks p
	} {
		holds, cex, err := CheckLTL(e, ctl.MustParseLTL(c.f))
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if holds != c.want {
			t.Errorf("CheckLTL(%s) under fairness = %v, want %v", c.f, holds, c.want)
		}
		if !holds {
			replayCounterexample(t, e, c.f, cex)
		}
	}
}

// replayCounterexample checks the lasso is a real fair path of e whose
// induced infinite path falsifies f — the same obligation the symbolic
// checker's counterexamples carry.
func replayCounterexample(t *testing.T, e *kripke.Explicit, f string, cex *Lasso) {
	t.Helper()
	all := make([]bool, e.N)
	for i := range all {
		all[i] = true
	}
	if err := New(e).ValidateLasso(cex, all); err != nil {
		t.Fatalf("%s: counterexample is not a fair lasso of the model: %v", f, err)
	}
	holds, err := EvalLasso(ctl.MustParseLTL(f), len(cex.States), cex.CycleStart,
		func(pos int, lit *ctl.Formula) (bool, error) {
			return LabelAtom(e, cex.States[pos], lit)
		})
	if err != nil {
		t.Fatalf("%s: replay: %v", f, err)
	}
	if holds {
		t.Errorf("%s: counterexample path satisfies the spec", f)
	}
}
