package smvd

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// specLines collects the shipped models' lines that start with keyword
// (SPEC or LTLSPEC), without it.
func specLines(f *testing.F, keyword string) []string {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.smv"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no models: %v", err)
	}
	var out []string
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), keyword); ok {
				out = append(out, strings.TrimSpace(rest))
			}
		}
		file.Close()
	}
	if len(out) == 0 {
		f.Fatalf("no %s line in the models", keyword)
	}
	return out
}

// FuzzCheckRequest sends one CTL and one LTL spec to an in-process
// Server.Check on peterson.smv, a shipped model with processes and
// FAIRNESS. Whatever the spec texts, the request succeeds (a spec that
// does not parse, names an unknown identifier or is over the formula
// cap is a verdict error), it returns two verdicts, every failing
// verdict carries a validated, non-empty trace, and the same request
// repeated at once is served warm with identical verdicts.
func FuzzCheckRequest(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "models", "peterson.smv"))
	if err != nil {
		f.Fatal(err)
	}
	model := string(raw)
	ctlSeeds, ltlSeeds := specLines(f, "SPEC"), specLines(f, "LTLSPEC")
	for i := range max(len(ctlSeeds), len(ltlSeeds)) {
		f.Add(ctlSeeds[i%len(ctlSeeds)], ltlSeeds[i%len(ltlSeeds)])
	}
	big := "crit0"
	for range 30 {
		big = "(" + big + " <-> crit1)"
	}
	f.Add(big, big)

	cache, err := NewCache(1, 0, "")
	if err != nil {
		f.Fatal(err)
	}
	sv := NewServer(cache)
	f.Fuzz(func(t *testing.T, ctlSpec, ltlSpec string) {
		req := &CheckRequest{Model: model, Specs: []string{ctlSpec}, LTL: []string{ltlSpec}}
		first, err := sv.Check(req)
		if err != nil {
			t.Fatalf("request failed: %v", err)
		}
		if len(first.Verdicts) != 2 {
			t.Fatalf("%d verdicts for two specs", len(first.Verdicts))
		}
		for _, v := range first.Verdicts {
			if v.Error == "" && !v.Holds && (!v.Validated || v.Trace == "" || v.States <= 0) {
				t.Fatalf("failing verdict without a validated trace: %+v", v)
			}
		}
		again, err := sv.Check(req)
		if err != nil {
			t.Fatalf("repeat request failed: %v", err)
		}
		if !again.Warm {
			t.Fatal("repeat request was not served warm")
		}
		if !slices.Equal(first.Verdicts, again.Verdicts) {
			t.Fatalf("warm verdicts %+v differ from the first %+v", again.Verdicts, first.Verdicts)
		}
	})
}
