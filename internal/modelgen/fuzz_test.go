package modelgen

import (
	"testing"

	"repro/internal/smv"
)

// FuzzModelGen drives the full differential lattice from a fuzzed
// generator seed. Every seed yields a well-formed model by
// construction, so the interesting signal is a divergence between
// engine configurations or against the explicit oracle — reported as a
// failure with a shrunk reproducer in testdata/.
func FuzzModelGen(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Add(int64(1<<40 + 7))
	f.Add(int64(-3))
	f.Fuzz(func(t *testing.T, seed int64) {
		m := Generate(seed)
		src := m.Source()
		if _, err := smv.CompileSource(src, smv.Config{}); err != nil {
			t.Fatalf("seed %d: generated model does not compile: %v\n%s", seed, err, src)
		}
		if err := CheckModel(src); err != nil {
			path, werr := WriteReproducer(m, "testdata")
			t.Fatalf("seed %d: %v (reproducer: %s, write err: %v)", seed, err, path, werr)
		}
	})
}
