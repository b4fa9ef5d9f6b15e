package mc

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bdd"
)

// A checker's results travel in a warm-start record as named roots, one
// per BDD, next to the record's own roots:
//
//	memo/<formula>        a subformula memo entry, keyed by its text
//	eg/<i>/f, eg/<i>/set  an EG seed: the EG fixpoint held for f
//	eu/<i>/f              the f of a cached E[f U g] ring prefix
//	eu/<i>/ring/<j>       its ring j; ring 0 is g
//	eu/<i>/done           present when the prefix ends at the fixpoint
//	fg/<i>/f, fg/<i>/set  FairEG f's cached rings: f and the fixpoint
//	fg/<i>/ring/<k>/<j>   ring j of fairness constraint k
//
// <i> numbers the groups of one kind; ring and constraint indices run
// from 0 without gaps.

// ExportState returns the checker's results as named roots for a
// warm-start record: the subformula memo, the EG seeds and the ring
// caches. Rings of an earlier collection epoch are dropped first
// (syncRings), so every root names a live node. A memo entry whose name
// would be longer than bdd.MaxSavedNameLen is left out. The roots are
// in a fixed order, so equal checkers export equal records.
func (c *Checker) ExportState() []bdd.NamedRoot {
	c.syncRings()
	var out []bdd.NamedRoot
	add := func(r bdd.Ref, format string, args ...any) {
		out = append(out, bdd.NamedRoot{Name: fmt.Sprintf(format, args...), Ref: r})
	}
	for _, key := range sortedKeys(c.memo) {
		if name := "memo/" + key; len(name) <= bdd.MaxSavedNameLen {
			out = append(out, bdd.NamedRoot{Name: name, Ref: c.memo[key]})
		}
	}
	for i, f := range sortedKeys(c.egSets) {
		add(f, "eg/%d/f", i)
		add(c.egSets[f], "eg/%d/set", i)
	}
	euKeys := make([]euKey, 0, len(c.euRings))
	for k := range c.euRings {
		euKeys = append(euKeys, k)
	}
	slices.SortFunc(euKeys, func(a, b euKey) int { return cmp.Or(cmp.Compare(a.f, b.f), cmp.Compare(a.g, b.g)) })
	for i, k := range euKeys {
		p := c.euRings[k]
		add(k.f, "eu/%d/f", i)
		for j, q := range p.rings {
			add(q, "eu/%d/ring/%d", i, j)
		}
		if p.done {
			add(bdd.True, "eu/%d/done", i)
		}
	}
	for i, f := range sortedKeys(c.egRings) {
		r := c.egRings[f]
		add(r.F, "fg/%d/f", i)
		add(r.Result, "fg/%d/set", i)
		for k, rs := range r.PerFair {
			for j, q := range rs {
				add(q, "fg/%d/ring/%d/%d", i, k, j)
			}
		}
	}
	return out
}

// RestoreState installs roots that ExportState returned on a checker
// over the same structure, care set and fair set: call it after
// SetCareSet and SeedFair. The memo entries and EG seeds are protected,
// as the checker's own are. The rings join the ring caches in the
// current collection epoch: like every cached ring they stay
// unprotected and go at the next collection, so restore them right
// after loading, before anything collects. Entries the checker already
// holds are kept. Malformed roots are refused as a whole: nothing is
// installed and the error names the first offending root. It returns
// the number of sets (memo entries and EG seeds) and rings installed.
func (c *Checker) RestoreState(roots []bdd.NamedRoot) (sets, rings int, err error) {
	st, err := parseState(roots, max(1, len(c.S.Fair)))
	if err != nil {
		return 0, 0, err
	}
	for key, r := range st.memo {
		if _, ok := c.memo[key]; !ok {
			c.memo[key] = c.S.M.Protect(r)
			sets++
		}
	}
	for f, eg := range st.eg {
		if _, ok := c.egSets[f]; !ok {
			c.holdEG(f, eg)
			sets++
		}
	}
	c.syncRings()
	for k, p := range st.eu {
		if _, ok := c.euRings[k]; !ok {
			c.euRings[k] = p
			rings += len(p.rings)
		}
	}
	for f, r := range st.fg {
		if _, ok := c.egRings[f]; !ok {
			c.egRings[f] = r
			for _, rs := range r.PerFair {
				rings += len(rs)
			}
		}
	}
	return sets, rings, nil
}

// savedState is a parsed ExportState root list.
type savedState struct {
	memo map[string]bdd.Ref
	eg   map[bdd.Ref]bdd.Ref
	eu   map[euKey]euPrefix
	fg   map[bdd.Ref]*Rings
}

// savedGroup gathers the roots of one numbered group.
type savedGroup struct {
	f, set         bdd.Ref
	haveF, haveSet bool
	done           bool
	rings          map[int]map[int]bdd.Ref // [k][j]; an EU group uses k = 0
}

// parseState checks and decodes roots written by ExportState for a
// structure with nFair fairness constraints (1 without any: FairEG's
// pseudo-constraint true).
func parseState(roots []bdd.NamedRoot, nFair int) (*savedState, error) {
	st := &savedState{
		memo: map[string]bdd.Ref{},
		eg:   map[bdd.Ref]bdd.Ref{},
		eu:   map[euKey]euPrefix{},
		fg:   map[bdd.Ref]*Rings{},
	}
	groups := map[string]map[int]*savedGroup{"eg": {}, "eu": {}, "fg": {}}
	seen := map[string]bool{}
	for _, r := range roots {
		bad := func(why string) error { return fmt.Errorf("mc: saved state: root %.64q: %s", r.Name, why) }
		if seen[r.Name] {
			return nil, bad("repeated")
		}
		seen[r.Name] = true
		kind, rest, _ := strings.Cut(r.Name, "/")
		if kind == "memo" {
			if rest == "" {
				return nil, bad("empty memo key")
			}
			st.memo[rest] = r.Ref
			continue
		}
		byIndex, ok := groups[kind]
		if !ok {
			return nil, bad("unknown prefix")
		}
		parts := strings.Split(rest, "/")
		i, ok := savedIndex(parts[0])
		if !ok || len(parts) < 2 {
			return nil, bad("malformed group")
		}
		g := byIndex[i]
		if g == nil {
			g = &savedGroup{rings: map[int]map[int]bdd.Ref{}}
			byIndex[i] = g
		}
		ring, k, j := false, "0", ""
		switch field := parts[1]; {
		case field == "f" && len(parts) == 2:
			g.f, g.haveF = r.Ref, true
		case field == "set" && len(parts) == 2 && kind != "eu":
			g.set, g.haveSet = r.Ref, true
		case field == "done" && len(parts) == 2 && kind == "eu":
			g.done = true
		case field == "ring" && len(parts) == 3 && kind == "eu":
			ring, j = true, parts[2]
		case field == "ring" && len(parts) == 4 && kind == "fg":
			ring, k, j = true, parts[2], parts[3]
		default:
			return nil, bad("unknown field")
		}
		if !ring {
			continue
		}
		ki, okK := savedIndex(k)
		ji, okJ := savedIndex(j)
		if !okK || !okJ {
			return nil, bad("malformed ring index")
		}
		if g.rings[ki] == nil {
			g.rings[ki] = map[int]bdd.Ref{}
		}
		g.rings[ki][ji] = r.Ref
	}
	for i, g := range groups["eg"] {
		if !g.haveF || !g.haveSet {
			return nil, fmt.Errorf("mc: saved state: EG seed %d lacks its f or its set", i)
		}
		st.eg[g.f] = g.set
	}
	for i, g := range groups["eu"] {
		rs := dense(g.rings[0])
		if !g.haveF || len(rs) == 0 {
			return nil, fmt.Errorf("mc: saved state: EU rings %d lack their f or have a gap", i)
		}
		st.eu[euKey{g.f, rs[0]}] = euPrefix{rings: rs, done: g.done}
	}
	for i, g := range groups["fg"] {
		perFair := dense(g.rings)
		if !g.haveF || !g.haveSet || len(perFair) != nFair {
			return nil, fmt.Errorf("mc: saved state: fair EG rings %d lack their f or set, or have a gap", i)
		}
		r := &Rings{F: g.f, Result: g.set}
		for _, m := range perFair {
			rs := dense(m)
			if len(rs) == 0 {
				return nil, fmt.Errorf("mc: saved state: fair EG rings %d have a gap", i)
			}
			r.PerFair = append(r.PerFair, rs)
		}
		st.fg[g.f] = r
	}
	return st, nil
}

// savedIndex parses a group, constraint or ring index written by
// ExportState: a decimal number without sign or leading zeros.
func savedIndex(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0 && strconv.Itoa(n) == s
}

// dense returns m's values as a slice indexed by key, or nil when the
// keys are not exactly 0..len(m)-1.
func dense[T any](m map[int]T) []T {
	out := make([]T, len(m))
	for i, v := range m {
		if i >= len(m) {
			return nil
		}
		out[i] = v
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
