package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// Concurrency smoke for the smvd session cache, designed to run under
// -race in CI: 64 distinct sessions hammered from 16 goroutines with a
// mix of hot queries, bad-model requests and already-expired deadlines,
// then a clean shutdown (FlushAll) and a warm restart over the same
// directory. Every successful verdict must match the single-shot
// reference for the same model — the cache must never change an answer.

func TestSmvdConcurrencySmoke(t *testing.T) {
	const (
		sessions = 64
		workers  = 16
		clients  = 3
	)
	iters := 40
	if testing.Short() {
		iters = 10
	}

	base := modelgen.ArbiterSource(clients)
	specs, expected := modelgen.ArbiterSpecs(clients)

	// Single-shot reference run (the cmd/smv path) over the same model
	// with the workload specs as SPEC sections: its verdicts are the
	// parity oracle for everything the server answers, and they must
	// also match the generator's documented truth.
	refSrc := base
	for _, sp := range specs {
		refSrc += "SPEC " + sp + "\n"
	}
	ref := warmReferenceRun(t, refSrc, smv.Config{})
	if len(ref.holds) != len(specs) {
		t.Fatalf("reference checked %d specs, want %d", len(ref.holds), len(specs))
	}
	truth := ref.holds
	for j := range truth {
		if truth[j] != expected[j] {
			t.Fatalf("reference verdict for %q is %v, generator documents %v",
				specs[j], truth[j], expected[j])
		}
	}

	models := make([]string, sessions)
	for i := range models {
		models[i] = fmt.Sprintf("-- smoke session %d\n%s", i, base)
	}

	dir := t.TempDir()
	cache, err := smvd.NewCache(sessions, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv := smvd.NewServer(cache)

	var divergences, queries, badRejected atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				switch roll := rng.Intn(100); {
				case roll < 5:
					if _, err := sv.Check(&smvd.CheckRequest{Model: "MODULE main\nVAR x : oops(;"}); err != nil {
						badRejected.Add(1)
					} else {
						t.Error("bad model accepted")
					}
				case roll < 10:
					// An already-expired budget: either the request fails with
					// a deadline error or individual specs report one; no
					// verdict may be wrong.
					resp, err := sv.Check(&smvd.CheckRequest{
						Model:      models[rng.Intn(sessions)],
						Specs:      specs,
						DeadlineMs: 1,
					})
					if err == nil {
						for j, v := range resp.Verdicts {
							if v.Error == "" && v.Holds != truth[j] {
								divergences.Add(1)
							}
						}
					}
				default:
					// Round-robin base index so all 64 sessions get traffic.
					m := models[(w*iters+i)%sessions]
					resp, err := sv.Check(&smvd.CheckRequest{Model: m, Specs: specs})
					if err != nil {
						t.Errorf("query failed: %v", err)
						continue
					}
					queries.Add(1)
					for j, v := range resp.Verdicts {
						if v.Error != "" || v.Holds != truth[j] || (!v.Holds && !v.Validated) {
							divergences.Add(1)
							t.Errorf("divergence on %q: holds=%v want %v err=%q",
								v.Spec, v.Holds, truth[j], v.Error)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if divergences.Load() > 0 {
		t.Fatalf("%d verdict divergences under load", divergences.Load())
	}
	if badRejected.Load() == 0 {
		t.Error("no bad-model request exercised")
	}
	st := sv.Cache.Stats()
	if st.Sessions != sessions {
		t.Errorf("cache holds %d sessions, want %d", st.Sessions, sessions)
	}
	if st.CompileErrors == 0 {
		t.Error("bad models produced no compile errors")
	}

	// Clean shutdown: flush every session, then restart over the same
	// directory — the first query must be disk-warm.
	if err := sv.Cache.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	cache2, err := smvd.NewCache(sessions, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := smvd.NewServer(cache2)
	resp, err := sv2.Check(&smvd.CheckRequest{Model: models[0], Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Warm || resp.WarmSource != "disk" {
		t.Fatalf("restart not disk-warm: warm=%v source=%q", resp.Warm, resp.WarmSource)
	}
	for j, v := range resp.Verdicts {
		if v.Error != "" || v.Holds != truth[j] {
			t.Errorf("post-restart divergence on %q", v.Spec)
		}
	}
}

// TestSmvdBudgetEvictionUnderLoad exercises the over-budget path
// concurrently: with a 1-node budget every query ends in an eviction,
// and concurrent queries against the same key must still all succeed on
// their private session pointers.
func TestSmvdBudgetEvictionUnderLoad(t *testing.T) {
	const clients = 3
	base := modelgen.ArbiterSource(clients)
	specs, truth := modelgen.ArbiterSpecs(clients)

	cache, err := smvd.NewCache(8, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	sv := smvd.NewServer(cache)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := sv.Check(&smvd.CheckRequest{Model: base, Specs: specs})
				if err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
				for j, v := range resp.Verdicts {
					if v.Error != "" || v.Holds != truth[j] {
						t.Errorf("divergence on %q under eviction churn", v.Spec)
					}
				}
			}
		}()
	}
	wg.Wait()
	st := sv.Cache.Stats()
	if st.EvictionsBudget == 0 {
		t.Error("no budget eviction recorded")
	}
	if st.Sessions != 0 {
		t.Errorf("%d sessions survived a 1-node budget", st.Sessions)
	}
}
