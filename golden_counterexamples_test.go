package repro

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/smv"
	"repro/internal/smvd"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden counterexample files in testdata/")

// TestGoldenCounterexamples pins the exact text of every counterexample
// the shipped models produce: each failing SPEC and LTLSPEC of
// models/*.smv, rendered as `smv` prints it (full and -delta form) and
// as an smvd session returns it, once cold and once from the session's
// warm memo. Regenerate with
//
//	go test -run TestGoldenCounterexamples -update .
//
// Witness-generation changes that claim to keep every trace must leave
// these files untouched.
func TestGoldenCounterexamples(t *testing.T) {
	models, err := filepath.Glob("models/*.smv")
	if err != nil || len(models) == 0 {
		t.Fatalf("no models: %v", err)
	}
	t.Run("default", func(t *testing.T) {
		var out strings.Builder
		for _, path := range models {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			renderSmvCounterexamples(t, &out, path, string(src))
			renderSmvdCounterexamples(t, &out, path, string(src), smv.Config{})
		}
		golden := filepath.Join("testdata", "counterexamples-default.golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("counterexamples differ from %s at %s", golden, firstDiff(got, string(want)))
		}
	})
}

// renderSmvCounterexamples follows the `smv model.smv` path: CheckCTL
// on one checker without a care set for the CTL specs, CheckLTL (a
// fresh product and checker) per LTL spec.
func renderSmvCounterexamples(t *testing.T, out *strings.Builder, path, src string) {
	t.Helper()
	fmt.Fprintf(out, "== smv %s\n", path)
	compiled, err := smv.CompileSource(src, smv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checker := mc.New(compiled.S)
	defer checker.Close()
	gen := core.NewGenerator(checker)
	for _, sp := range compiled.Module.Specs {
		v, err := compiled.CheckCTL(gen, sp.Formula)
		if err != nil {
			t.Fatalf("%s: %s: %v", path, sp.Source, err)
		}
		if v.Holds {
			continue
		}
		fmt.Fprintf(out, "-- specification %s is false\n%s-- delta\n%s",
			sp.Source, compiled.TraceString(v.Trace), compiled.DeltaTraceString(v.Trace))
	}
	for _, sp := range compiled.Module.LTLSpecs {
		v, err := compiled.CheckLTL(sp.Formula, sp.Source)
		if err != nil {
			t.Fatalf("%s: %s: %v", path, sp.Source, err)
		}
		if v.Holds {
			continue
		}
		fmt.Fprintf(out, "-- LTL specification %s is false\n%s", sp.Source, v.Product.TraceString(v.Trace))
	}
}

// renderSmvdCounterexamples sends every spec of the model to an smvd
// server twice: the first request compiles the session and computes its
// fixpoints, the second is answered from the session's memo. Both must
// return the same counterexamples.
func renderSmvdCounterexamples(t *testing.T, out *strings.Builder, path, src string, cfg smv.Config) {
	t.Helper()
	fmt.Fprintf(out, "== smvd %+v %s\n", cfg, path)
	module, err := smv.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	req := &smvd.CheckRequest{Model: src, Config: cfg}
	for _, sp := range module.Specs {
		req.Specs = append(req.Specs, sp.Source)
	}
	for _, sp := range module.LTLSpecs {
		req.LTL = append(req.LTL, sp.Source)
	}
	cache, err := smvd.NewCache(1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	sv := smvd.NewServer(cache)
	var first []smvd.SpecVerdict
	for round := 0; round < 2; round++ {
		resp, err := sv.Check(req)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if round == 0 {
			first = resp.Verdicts
			continue
		}
		for i, v := range resp.Verdicts {
			if v != first[i] {
				t.Fatalf("%s: %s: warm verdict %+v differs from cold %+v", path, v.Spec, v, first[i])
			}
		}
	}
	for _, v := range first {
		if v.Error != "" {
			t.Fatalf("%s: %s: %s", path, v.Spec, v.Error)
		}
		if !v.Holds {
			fmt.Fprintf(out, "-- specification %s is false (%d states)\n%s", v.Spec, v.States, v.Trace)
		}
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: lengths differ (%d vs %d lines)", min(len(g), len(w))+1, len(g), len(w))
}
