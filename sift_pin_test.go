package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
)

// TestSiftDecisionsPinned holds fixed what growth-triggered sifting
// decides on the two generated models that sift on the cold path:
// hanoi-7 and chase-16 under smv.Config{Reorder: true}, through
// reachability, the fair set and every CTL spec with its validated
// counterexample, as a cold `smv` run with a care set checks them. The
// sift counters, the final order, the live-node count and a SHA-256 of
// every rendered counterexample must keep the values below. A change to
// the swap kernel or the sift's bookkeeping may renumber nodes, but it
// must make the same swaps, trials and aborts and reach the same order;
// a change that means to alter a sift decision re-pins them here.
func TestSiftDecisionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name string
		src  string

		autoReorders, passes, trials, swaps, aborts uint64
		order                                       []int
		nodes                                       int
		traces                                      []string // SHA-256 per CTL spec, "" where it holds
	}{
		{
			name:         "hanoi-7",
			src:          modelgen.HanoiSource(7),
			autoReorders: 5, passes: 5, trials: 1699, swaps: 10696, aborts: 31,
			order: []int{2, 3, 0, 1, 10, 11, 8, 9, 6, 7, 4, 5, 14, 15, 12, 13, 18, 19, 16, 17,
				22, 23, 20, 21, 26, 27, 24, 25, 30, 31, 28, 29, 32, 33, 34, 35},
			nodes:  15957,
			traces: []string{"", "f611e8ca30936a4881895e5fac9b47105d2bece139e4806d23c0fea1394f08a5", ""},
		},
		{
			name:         "chase-16",
			src:          modelgen.ChaseSource(16),
			autoReorders: 1, passes: 2, trials: 207, swaps: 1316, aborts: 6,
			order:  []int{0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 6, 7, 8, 9, 16, 17, 10, 11, 18, 19},
			nodes:  536,
			traces: []string{"", "efdbd1d3655052bc1303864197bb5e9ac423cae5159d6d98a5da666140e47808", "", ""},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, err := smv.CompileSource(tc.src, smv.Config{Reorder: true})
			if err != nil {
				t.Fatal(err)
			}
			checker := mc.New(compiled.S)
			defer checker.Close()
			gen := core.NewGenerator(checker)
			checker.UseReachableCareSet()
			checker.Fair()
			var traces []string
			for _, sp := range compiled.Module.Specs {
				v, err := compiled.CheckCTL(gen, sp.Formula)
				if err != nil {
					t.Fatalf("%s: %v", sp.Source, err)
				}
				sum := ""
				if !v.Holds {
					h := sha256.Sum256([]byte(compiled.TraceString(v.Trace)))
					sum = hex.EncodeToString(h[:])
				}
				traces = append(traces, sum)
			}
			m := compiled.S.M
			st := m.Stats
			got := [5]uint64{st.AutoReorders, st.SiftPasses, st.SiftTrials, st.SiftSwaps, st.SiftAborts}
			want := [5]uint64{tc.autoReorders, tc.passes, tc.trials, tc.swaps, tc.aborts}
			if got != want {
				t.Errorf("sift events, passes, trials, swaps, aborts = %v, want %v", got, want)
			}
			if o := m.Order(); !slices.Equal(o, tc.order) {
				t.Errorf("final order %v, want %v", o, tc.order)
			}
			if n := m.NumNodes(); n != tc.nodes {
				t.Errorf("%d live nodes, want %d", n, tc.nodes)
			}
			if !slices.Equal(traces, tc.traces) {
				t.Errorf("counterexample digests %q, want %q", traces, tc.traces)
			}
		})
	}
}
