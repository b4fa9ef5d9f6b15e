package ltl_test

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/explicit"
	"repro/internal/kripke"
	"repro/internal/ltl"
	"repro/internal/mc"
)

// shippedLTLSpecShapes loads the LTLSPEC lines of the shipped models
// and rewrites every literal to the p/q alphabet the differential
// labels, preserving the temporal shape (the interesting part of a
// seed) while making the atoms resolvable.
func shippedLTLSpecShapes() []string {
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
			rest, ok := strings.CutPrefix(line, "LTLSPEC")
			if !ok {
				continue
			}
			f, err := ctl.ParseLTL(strings.TrimSpace(rest))
			if err != nil {
				continue
			}
			n := 0
			var rename func(g *ctl.Formula)
			rename = func(g *ctl.Formula) {
				if g == nil {
					return
				}
				switch g.Kind {
				case ctl.KAtom, ctl.KEq, ctl.KNeq:
					g.Kind = ctl.KAtom
					g.Value = ""
					g.Name = "p"
					if n%2 == 1 {
						g.Name = "q"
					}
					n++
				}
				rename(g.L)
				rename(g.R)
			}
			rename(f)
			out = append(out, f.String())
		}
		file.Close()
	}
	return out
}

// checkSymbolic decides e ⊨ spec through the symbolic tableau product
// and, on violation, extracts a fair lasso through the ring-walk
// generator, validates it against the product, and replays its model
// projection against LTL semantics. It returns the verdict.
func checkSymbolic(t *testing.T, e *kripke.Explicit, spec *ctl.Formula) bool {
	t.Helper()
	prod, err := ltl.ProductFromExplicit(e, spec)
	if err != nil {
		t.Fatalf("%s: product: %v", spec, err)
	}
	c := mc.New(prod.S)
	defer c.Close()
	empty, start := c.FairEmptiness(prod.Accept)
	if empty {
		return true
	}
	gen := core.NewGenerator(c)
	tr, err := gen.WitnessEG(bdd.True, start)
	if err != nil {
		t.Fatalf("%s: fair lasso extraction: %v", spec, err)
	}
	if !tr.IsLasso() {
		t.Fatalf("%s: counterexample is not a lasso", spec)
	}
	if err := core.ValidatePath(prod.S, tr); err != nil {
		t.Fatalf("%s: invalid product trace: %v", spec, err)
	}
	if len(prod.S.Fair) > 0 {
		if err := core.ValidateFairLasso(prod.S, tr); err != nil {
			t.Fatalf("%s: lasso violates product fairness: %v", spec, err)
		}
	}
	// Replay the model projection of the lasso against LTL semantics:
	// the induced path must falsify the specification.
	holds, err := explicit.EvalLasso(spec, len(tr.States), tr.CycleStart,
		func(pos int, lit *ctl.Formula) (bool, error) {
			u := kripke.StateIndex(tr.States[pos][:prod.ModelLen])
			return explicit.LabelAtom(e, u, lit)
		})
	if err != nil {
		t.Fatalf("%s: replay: %v", spec, err)
	}
	if holds {
		t.Fatalf("%s: symbolic counterexample path satisfies the spec", spec)
	}
	return false
}

func crossCheck(t *testing.T, e *kripke.Explicit, specs []string) {
	t.Helper()
	for _, src := range specs {
		spec := ctl.MustParseLTL(src)
		expHolds, expCex, err := explicit.CheckLTL(e, spec)
		if err != nil {
			t.Fatalf("%s: explicit: %v", src, err)
		}
		symHolds := checkSymbolic(t, e, spec)
		if expHolds != symHolds {
			t.Errorf("%s: explicit says %v, symbolic says %v", src, expHolds, symHolds)
		}
		if !expHolds && expCex != nil {
			// The explicit counterexample must itself falsify the spec.
			holds, err := explicit.EvalLasso(spec, len(expCex.States), expCex.CycleStart,
				func(pos int, lit *ctl.Formula) (bool, error) {
					return explicit.LabelAtom(e, expCex.States[pos], lit)
				})
			if err != nil {
				t.Fatalf("%s: explicit replay: %v", src, err)
			}
			if holds {
				t.Errorf("%s: explicit counterexample satisfies the spec", src)
			}
		}
	}
}

var crossSpecs = []string{
	"G p", "F p", "G q", "F q", "X p", "X X q",
	"G F p", "F G p", "G F q", "F G q",
	"p U q", "q U p", "p R q", "p W q",
	"G (p -> F q)", "G (q -> F p)", "G (p -> X q)",
	"F (p & q)", "G (p | q)", "p -> G q", "!G p", "!(p U q)",
	"G (p -> p U q)", "F p & F q", "G p | G q",
}

func TestProductVsExplicitDeterministic(t *testing.T) {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.AddEdge(1, 1)
	e.Label(0, "p")
	e.Label(1, "q")
	e.AddInit(0)
	crossCheck(t, e, crossSpecs)
}

func TestProductVsExplicitRandom(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		nfair := int(seed) % 3
		e := kripke.RandomExplicit(r, 3+r.Intn(6), 1.5, []string{"p", "q"}, nfair, 0.4)
		crossCheck(t, e, crossSpecs)
	}
}

// hasComparison reports whether f contains =/!= literals; the fuzz
// differential skips them because the explicit label conventions only
// align with the symbolic atom resolution for plain boolean atoms.
func hasComparison(f *ctl.Formula) bool {
	if f == nil {
		return false
	}
	if f.Kind == ctl.KEq || f.Kind == ctl.KNeq {
		return true
	}
	return hasComparison(f.L) || hasComparison(f.R)
}

func onlyKnownAtoms(f *ctl.Formula, known map[string]bool) bool {
	for _, a := range ctl.Atoms(f) {
		if !known[a] {
			return false
		}
	}
	return true
}

// isNNF reports whether f is in the normal form NNF promises: only
// {true, false, literal, ∧, ∨, X, U, R}, with ! applied to atoms only.
func isNNF(f *ctl.Formula) bool {
	if f == nil {
		return true
	}
	switch f.Kind {
	case ctl.KTrue, ctl.KFalse, ctl.KAtom, ctl.KEq, ctl.KNeq:
		return true
	case ctl.KNot:
		switch f.L.Kind {
		case ctl.KAtom, ctl.KEq, ctl.KNeq:
			return true
		}
		return false
	case ctl.KAnd, ctl.KOr, ctl.KX, ctl.KU, ctl.KR:
		return isNNF(f.L) && isNNF(f.R)
	}
	return false
}

// checkNNF asserts that the NNF of spec is well formed and idempotent,
// and that its tableau builds with only temporal elementary
// subformulas.
func checkNNF(t *testing.T, src string, spec *ctl.Formula) {
	t.Helper()
	n := ltl.NNF(spec)
	if !isNNF(n) {
		t.Fatalf("NNF(%q) = %q is not in normal form", src, n)
	}
	if !ctl.Equal(n, ltl.NNF(n)) {
		t.Fatalf("NNF is not idempotent on %q", src)
	}
	for _, e := range ltl.Translate(spec).Elem {
		if e.Kind != ctl.KX && e.Kind != ctl.KU && e.Kind != ctl.KR {
			t.Fatalf("non-temporal elementary subformula %q", e)
		}
	}
}

// FuzzLTLTranslate drives the full differential: a random small model
// and a fuzzed specification are checked by the explicit product oracle
// and by the symbolic tableau product; verdicts must agree and every
// symbolic counterexample lasso must replay to false. Every formula
// that parses also has its NNF and tableau checked first.
func FuzzLTLTranslate(f *testing.F) {
	for _, s := range crossSpecs {
		f.Add(int64(1), uint8(5), s)
	}
	f.Add(int64(7), uint8(4), "G (p -> F q)")
	f.Add(int64(9), uint8(6), "p U (q U p)")
	// The shipped models' LTLSPEC lines ride along as shape seeds. Their
	// atoms are renamed p/q below so the differential body (which only
	// labels p and q) doesn't immediately skip them.
	for i, s := range shippedLTLSpecShapes() {
		f.Add(int64(i), uint8(i), s)
	}
	known := map[string]bool{"p": true, "q": true}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, src string) {
		spec, err := ctl.ParseLTL(src)
		if err != nil {
			t.Skip()
		}
		if ctl.Size(spec) <= 200 {
			checkNNF(t, src, spec)
		}
		if hasComparison(spec) || !onlyKnownAtoms(spec, known) || ctl.Size(spec) > 24 {
			t.Skip()
		}
		tab := ltl.Translate(spec)
		if len(tab.Elem) > 5 {
			t.Skip() // keep the explicit product tractable
		}
		n := 2 + int(size)%7
		r := rand.New(rand.NewSource(seed))
		e := kripke.RandomExplicit(r, n, 1.5, []string{"p", "q"}, int(seed)%3, 0.4)

		expHolds, _, err := explicit.CheckLTL(e, spec)
		if err != nil {
			t.Skip()
		}
		symHolds := checkSymbolic(t, e, spec)
		if expHolds != symHolds {
			t.Fatalf("verdict mismatch on %q (seed %d, n %d): explicit %v, symbolic %v",
				src, seed, n, expHolds, symHolds)
		}
	})
}
