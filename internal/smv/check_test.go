package smv

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/mc"
)

// TestVerdictContract checks what CheckCTL and CheckLTL promise: a
// failing verdict carries a trace that is a path of the structure it
// runs on (the model for CTL, the product for LTL, whose lasso also
// replays), a holding one carries none, an LTL verdict carries its
// product and its fair-EG outer iterations, and a spec that cannot be
// checked gives an error and the zero Verdict.
func TestVerdictContract(t *testing.T) {
	c := compileOK(t, toggleSrc)
	gen := core.NewGenerator(mc.New(c.S))
	for _, tc := range []struct {
		spec  string
		holds bool
	}{{"AG AF x", true}, {"AG x", false}, {"EF x", true}, {"AX !x", false}} {
		v, err := c.CheckCTL(gen, ctl.MustParse(tc.spec))
		if err != nil {
			t.Fatalf("CTL %s: %v", tc.spec, err)
		}
		if v.Holds != tc.holds || (v.Trace == nil) != tc.holds || v.Product != nil {
			t.Fatalf("CTL %s: verdict %+v, want holds=%v", tc.spec, v, tc.holds)
		}
		if v.Trace != nil {
			if err := core.ValidatePath(c.S, v.Trace); err != nil {
				t.Fatalf("CTL %s: %v", tc.spec, err)
			}
		}
	}
	for _, tc := range []struct {
		spec  string
		holds bool
	}{{"G F x", true}, {"F G x", false}, {"G (x -> X x)", false}} {
		v, err := c.CheckLTL(ctl.MustParseLTL(tc.spec), tc.spec)
		if err != nil {
			t.Fatalf("LTL %s: %v", tc.spec, err)
		}
		p := v.Product
		if v.Holds != tc.holds || (v.Trace == nil) != tc.holds || p == nil || p.Source != tc.spec {
			t.Fatalf("LTL %s: verdict %+v, want holds=%v", tc.spec, v, tc.holds)
		}
		if len(p.S.Fair) > 0 && v.FairEGOuter == 0 {
			t.Errorf("LTL %s: %d fairness sets but no fair-EG outer iteration", tc.spec, len(p.S.Fair))
		}
		if v.Trace != nil {
			if !v.Trace.IsLasso() {
				t.Fatalf("LTL %s: counterexample is not a lasso", tc.spec)
			}
			if err := core.ValidatePath(p.S, v.Trace); err != nil {
				t.Fatalf("LTL %s: %v", tc.spec, err)
			}
			if err := p.ReplayCounterexample(v.Trace); err != nil {
				t.Fatalf("LTL %s: %v", tc.spec, err)
			}
		}
	}
	const unknown = "smv: spec mentions unknown identifier"
	if v, err := c.CheckCTL(gen, ctl.MustParse("AG ghost")); err == nil || !strings.Contains(err.Error(), unknown) || v != (Verdict{}) {
		t.Errorf("CTL over an unknown atom: %+v, %v", v, err)
	}
	if v, err := c.CheckLTL(ctl.MustParseLTL("G ghost"), "G ghost"); err == nil || !strings.Contains(err.Error(), unknown) || v != (Verdict{}) {
		t.Errorf("LTL over an unknown atom: %+v, %v", v, err)
	}
}
