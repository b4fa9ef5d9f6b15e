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
)

// Config is the engine configuration a session is compiled under. Two
// queries share a session only when both the SMV source and the config
// agree: image mode, reordering and node representation all change the
// BDDs a session holds, so they are part of the cache key.
type Config struct {
	// Disjunctive selects the per-process disjunctive image when the
	// model declares processes (ignored otherwise, matching cmd/smv).
	Disjunctive bool `json:"disjunctive,omitempty"`
	// Workers is ignored: every session runs on one single-threaded
	// manager. normalize pins it to 1, so it never splits session keys.
	//
	// Deprecated: the shared-memory parallel BDD engine it configured has
	// been removed. The field remains only because perfbench sets it.
	Workers int `json:"workers,omitempty"`
	// Reorder enables growth-triggered dynamic variable reordering.
	Reorder bool `json:"reorder,omitempty"`
	// NoComplement compiles onto the legacy structural representation.
	NoComplement bool `json:"no_complement,omitempty"`
}

// normalize maps equivalent configs onto one representative so they
// hash identically. Workers is pinned to 1, the value every key was
// built with before the field was retired, so existing keys and
// warm-start records stay valid.
func (c Config) normalize() Config {
	c.Workers = 1
	return c
}

// ModelKey is the content hash identifying a session: SHA-256 over the
// SMV source and the normalized engine configuration. Any edit to the
// model text — including comments — yields a new key; specs do not
// participate, since they arrive with queries, not with the model.
func ModelKey(src string, cfg Config) string {
	cfg = cfg.normalize()
	h := sha256.New()
	h.Write([]byte(src))
	fmt.Fprintf(h, "\x00disj=%v workers=%d reorder=%v nocomp=%v",
		cfg.Disjunctive, cfg.Workers, cfg.Reorder, cfg.NoComplement)
	return hex.EncodeToString(h.Sum(nil))
}
