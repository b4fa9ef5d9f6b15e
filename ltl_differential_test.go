package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/smv"
)

// On a total structure the universal fragments of CTL and LTL agree on
// these template pairs (under the same fairness constraints):
//
//	G p            ≡ AG p
//	F p            ≡ AF p
//	G (r -> F a)   ≡ AG (r -> AF a)
//
// The differential harness instantiates the templates with the boolean
// atoms of every shipped model and demands identical verdicts from the
// CTL checker and the tableau-product LTL checker, in every image mode
// (monolithic, partitioned, and — on process models — disjunctive). A
// divergence means one of the two pipelines is wrong; the pair
// localizes which fixpoint to suspect.

// booleanAtoms collects identifiers usable as boolean atoms: DEFINEs
// that resolve as plain atoms first (they name the interesting protocol
// events), then boolean state variables.
func booleanAtoms(c *smv.Compiled, max int) []string {
	var out []string
	for _, d := range c.Module.Defines {
		if _, err := c.S.AtomSet(ctl.Atom(d.Name)); err == nil {
			out = append(out, d.Name)
		}
	}
	for _, name := range c.Order {
		if c.Vars[name].Decl.Type.Kind == smv.TypeBool {
			out = append(out, name)
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

type specPair struct{ ltlSrc, ctlSrc string }

func templatePairs(atoms []string) []specPair {
	var out []specPair
	for _, p := range atoms {
		out = append(out,
			specPair{fmt.Sprintf("G %s", p), fmt.Sprintf("AG %s", p)},
			specPair{fmt.Sprintf("F %s", p), fmt.Sprintf("AF %s", p)},
		)
	}
	for i, r := range atoms {
		a := atoms[(i+1)%len(atoms)]
		out = append(out, specPair{
			fmt.Sprintf("G (%s -> F %s)", r, a),
			fmt.Sprintf("AG (%s -> AF %s)", r, a),
		})
	}
	return out
}

func TestLTLvsCTLDifferential(t *testing.T) {
	entries, err := os.ReadDir("models")
	if err != nil {
		t.Fatalf("models directory: %v", err)
	}
	checked := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".smv") {
			continue
		}
		t.Run(ent.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("models", ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			base, err := smv.CompileSource(string(src), smv.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !base.S.IsTotal() {
				t.Skip("deadlocking model: CTL and LTL semantics diverge")
			}
			atoms := booleanAtoms(base, 4)
			if len(atoms) == 0 {
				t.Skip("no boolean atoms")
			}
			pairs := templatePairs(atoms)

			modes := []struct {
				name string
				on   bool
			}{
				{"monolithic", true},
				{"partitioned", true},
				{"disjunctive", base.S.NumDisjuncts() > 0},
			}
			for _, mode := range modes {
				if !mode.on {
					continue
				}
				for _, rep := range representations {
					mode, rep := mode, rep
					t.Run(mode.name+"/"+rep.name, func(t *testing.T) {
						configure := func(c *smv.Compiled) {
							if mode.name == "monolithic" {
								c.S.EnablePartition(false)
							}
						}
						cfg := rep.cfg
						cfg.Disjunctive = mode.name == "disjunctive"
						cc, err := smv.CompileSource(string(src), cfg)
						if err != nil {
							t.Fatal(err)
						}
						configure(cc)
						gen := core.NewGenerator(mc.New(cc.S))
						for _, pr := range pairs {
							cf, err := ctl.Parse(pr.ctlSrc)
							if err != nil {
								t.Fatalf("ctl %q: %v", pr.ctlSrc, err)
							}
							lf, err := ltl.Parse(pr.ltlSrc)
							if err != nil {
								t.Fatalf("ltl %q: %v", pr.ltlSrc, err)
							}
							ctlHolds, _, err := gen.CounterexampleInit(cf)
							if err != nil {
								t.Fatalf("%q: %v", pr.ctlSrc, err)
							}
							p, err := cc.Product(lf, pr.ltlSrc)
							if err != nil {
								t.Fatalf("%q: %v", pr.ltlSrc, err)
							}
							configure(p.Compiled)
							ch := mc.New(p.S)
							ltlHolds, tr, err := p.Check(ch)
							if err != nil {
								t.Fatalf("%q: %v", pr.ltlSrc, err)
							}
							if tr != nil {
								if err := p.ReplayCounterexample(tr); err != nil {
									t.Errorf("%q: %v", pr.ltlSrc, err)
								}
							}
							ch.Close()
							if ctlHolds != ltlHolds {
								t.Errorf("%q says %v but %q says %v",
									pr.ctlSrc, ctlHolds, pr.ltlSrc, ltlHolds)
							}
							checked++
						}
					})
				}
			}
		})
	}
	if checked == 0 {
		t.Fatal("no template pair was checked — differential is vacuous")
	}
}
