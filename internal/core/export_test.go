package core

import (
	"repro/internal/bdd"
	"repro/internal/kripke"
)

// RingLasso builds the EG f witness from `from` by the ring construction
// alone: the lasso WitnessEG falls back to when the forward walk finds
// no closing edge.
func (g *Generator) RingLasso(f bdd.Ref, from kripke.State) (*Trace, error) {
	egf, rings := g.C.FairEG(f)
	resume := g.C.S.M.PauseAutoReorder()
	defer resume()
	return g.witnessEGRings(egf, rings, from)
}
