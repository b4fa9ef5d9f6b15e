package modelgen

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestModelGenDifferential is the tier-1 property test: 200 generated
// models, each compiled through the full configuration lattice
// (monolithic/partitioned/disjunctive × complement on/off × reorder
// on/off) and cross-checked against the explicit-state oracle. Any
// divergence is shrunk to a minimal reproducer under testdata/ before
// failing. MODELGEN_SEEDS overrides the count for
// longer local runs; `cmd/modelsoak` is the unbounded version.
func TestModelGenDifferential(t *testing.T) {
	n := int64(200)
	if s := os.Getenv("MODELGEN_SEEDS"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MODELGEN_SEEDS: %v", err)
		}
		n = v
	}
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			m := Generate(seed)
			if err := CheckModel(m.Source()); err != nil {
				path, werr := WriteReproducer(m, "testdata")
				if werr != nil {
					path = fmt.Sprintf("(reproducer not written: %v)", werr)
				}
				t.Errorf("seed %d: %v\nreproducer: %s", seed, err, path)
			}
		})
	}
}
