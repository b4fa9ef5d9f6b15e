// Package smvd is the persistent model-checking service: a compiled
// SMV model, its variable order, its reachable-state set and its
// fair-state set are expensive to produce and cheap to keep, so the
// service keeps them — in memory across queries (sessions keyed by a
// content hash of source + engine configuration) and on disk across
// process restarts (serialize v3 warm-start records). This is the
// paper's reuse idea lifted one level: where Section 6 replays fixpoint
// frontiers to get counterexamples almost for free, the server replays
// whole verification artifacts to get *re-verification* almost for
// free.
package smvd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/smv"
)

// Config is the engine configuration a session is compiled under.
//
// Deprecated: use smv.Config. The alias remains only because perfbench
// names it.
type Config = smv.Config

// normalize maps configs that differ only in the retired workers field
// onto one representative, so a session's config and its warm-start
// record do not depend on which request built it.
func normalize(cfg smv.Config) smv.Config {
	return smv.Config{Disjunctive: cfg.Disjunctive, Reorder: cfg.Reorder, NoComplement: cfg.NoComplement}
}

// ModelKey is the content hash identifying a session: SHA-256 over the
// SMV source and the engine configuration. Image mode, reordering and
// node representation all change the BDDs a session holds, so they are
// part of the key; the retired workers field is written as the
// "workers=1" every key was built with while it was live, so existing
// keys and warm-start records stay valid. Any edit to the model text —
// including comments — yields a new key; specs do not participate,
// since they arrive with queries, not with the model.
func ModelKey(src string, cfg smv.Config) string {
	h := sha256.New()
	h.Write([]byte(src))
	fmt.Fprintf(h, "\x00disj=%v workers=1 reorder=%v nocomp=%v",
		cfg.Disjunctive, cfg.Reorder, cfg.NoComplement)
	return hex.EncodeToString(h.Sum(nil))
}
