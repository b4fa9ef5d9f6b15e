package smv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestConfigReachesStructureAndProduct compiles peterson.smv, which has
// processes and LTLSPECs, under every combination of the three engine
// settings, and checks that the compiled structure and an LTL product
// built from it both report each setting.
func TestConfigReachesStructureAndProduct(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "models", "peterson.smv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, disj := range []bool{false, true} {
		for _, reorder := range []bool{false, true} {
			for _, noComp := range []bool{false, true} {
				cfg := Config{Disjunctive: disj, Reorder: reorder, NoComplement: noComp}
				t.Run(fmt.Sprintf("disj=%v,reorder=%v,nocomp=%v", disj, reorder, noComp), func(t *testing.T) {
					c, err := CompileSource(string(src), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(c.Module.LTLSpecs) == 0 {
						t.Fatal("peterson.smv declares no LTLSPEC")
					}
					sp := c.Module.LTLSpecs[0]
					p, err := c.Product(sp.Formula, sp.Source)
					if err != nil {
						t.Fatal(err)
					}
					for _, got := range []struct {
						what string
						c    *Compiled
					}{{"structure", c}, {"product", p.Compiled}} {
						s := got.c.S
						if s.NumDisjuncts() == 0 {
							t.Fatalf("%s: process model without disjuncts", got.what)
						}
						if s.DisjunctEnabled() != disj {
							t.Errorf("%s: disjunctive image enabled = %v, want %v", got.what, s.DisjunctEnabled(), disj)
						}
						if s.M.AutoReorderEnabled() != reorder {
							t.Errorf("%s: auto-reorder enabled = %v, want %v", got.what, s.M.AutoReorderEnabled(), reorder)
						}
						if s.M.ComplementEdgesDisabled() != noComp {
							t.Errorf("%s: complement edges disabled = %v, want %v", got.what, s.M.ComplementEdgesDisabled(), noComp)
						}
					}
				})
			}
		}
	}
}

// TestConfigJSONKeys pins the JSON keys of a fully set Config: smvd
// requests and warm-start records use them.
func TestConfigJSONKeys(t *testing.T) {
	b, err := json.Marshal(Config{Disjunctive: true, Workers: 2, Reorder: true, NoComplement: true})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"disjunctive":true,"workers":2,"reorder":true,"no_complement":true}`
	if got := string(b); got != want {
		t.Fatalf("json.Marshal(Config) = %s, want %s", got, want)
	}
}
