package smvd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bdd"
	"repro/internal/mc"
	"repro/internal/smv"
)

// On-disk warm-start cache. A model's record is two files keyed by its
// content hash:
//
//	<key>.bdd   serialize v3: variable order + named roots "reach",
//	            "fair" and the checker's state (mc.ExportState)
//	<key>.json  diskMeta (frontier iterations, engine config, timestamps)
//
// The .bdd is written first and the .json last, both via temp+rename,
// so a crash mid-write leaves either no record or a complete one; the
// loader treats the meta file as the commit marker.

const (
	rootReach = "reach"
	rootFair  = "fair"
)

type diskMeta struct {
	Key        string     `json:"key"`
	Config     smv.Config `json:"config"`
	ReachIters int        `json:"reach_iters"`
	SavedAt    int64      `json:"saved_at_unix"`
}

// DiskStore is the warm-start record store over one directory. A
// running smvd's Cache writes a session's record on eviction and
// shutdown and reads it on a miss; `smv -cache-dir` calls WarmStart and
// SaveWarm, as a session does. Both use the same key scheme and file
// format, so a record written by either warms the other.
type DiskStore struct {
	dir string
}

// OpenDiskStore opens (creating if needed) a warm-start directory.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("smvd: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskStore{dir: dir}, nil
}

func (st *DiskStore) bddPath(key string) string  { return filepath.Join(st.dir, key+".bdd") }
func (st *DiskStore) metaPath(key string) string { return filepath.Join(st.dir, key+".json") }

// save writes the session's warm-start record. Caller holds the session
// lock. Sessions that never ran their fixpoints have nothing worth
// persisting and are skipped silently, as is everything on a nil store.
func (st *DiskStore) save(s *Session) error {
	if st == nil || !s.ready || s.broken {
		return nil
	}
	return st.SaveWarm(s.Key, s.Cfg, s.compiled, s.checker)
}

// SaveWarm writes (or refreshes) key's record from a compiled model and
// its checker, which must run under the reachable set as its care set
// (UseReachableCareSet): the reachable set, the checker's fair set, and
// its memo, EG seeds and current ring caches (mc.ExportState). Without
// a cached reachable or fair set there is nothing to save, and it
// writes nothing.
func (st *DiskStore) SaveWarm(key string, cfg smv.Config, c *smv.Compiled, ch *mc.Checker) error {
	reach, iters, ok := c.S.ReachableCached()
	fair, okFair := ch.CachedFair()
	if !ok || !okFair {
		return nil
	}
	return st.write(key, cfg, c.S.M, reach, fair, iters, ch.ExportState())
}

// Save writes (or refreshes) the warm-start record for key with the
// reachable and fair sets only.
func (st *DiskStore) Save(key string, cfg smv.Config, m *bdd.Manager, reach, fair bdd.Ref, iters int) error {
	return st.write(key, cfg, m, reach, fair, iters, nil)
}

// write stores a record: reach, fair and the checker roots in the .bdd
// file, then the meta file that commits it.
func (st *DiskStore) write(key string, cfg smv.Config, m *bdd.Manager, reach, fair bdd.Ref, iters int, state []bdd.NamedRoot) error {
	roots := append([]bdd.NamedRoot{{Name: rootReach, Ref: reach}, {Name: rootFair, Ref: fair}}, state...)
	if err := writeAtomic(st.bddPath(key), func(f *os.File) error {
		return m.SaveNamed(f, roots)
	}); err != nil {
		return err
	}
	meta := diskMeta{Key: key, Config: cfg, ReachIters: iters, SavedAt: time.Now().Unix()}
	return writeAtomic(st.metaPath(key), func(f *os.File) error {
		return json.NewEncoder(f).Encode(&meta)
	})
}

// load warm-starts the session from its record, if one exists. Returns
// whether the session was seeded (never, on a nil store). Caller holds
// the session lock (or has exclusivity by construction). A corrupt or
// mismatched record is reported as an error but leaves the session cold
// and usable.
func (st *DiskStore) load(s *Session) (bool, error) {
	if st == nil {
		return false, nil
	}
	restored, ok, err := st.WarmStart(s.Key, s.compiled, s.checker)
	if err != nil || !ok {
		return false, err
	}
	s.markReady()
	s.warmSource = "disk"
	s.restored = restored
	return true, nil
}

// Restored counts what a warm start put back into a checker besides the
// reachable and fair sets: Sets memo entries and EG seeds, and Rings
// onion rings of the witness ring caches.
type Restored struct {
	Sets, Rings int
}

// WarmStart seeds a compiled model and its fresh checker from key's
// record, if one exists: the model adopts the saved variable order, the
// reachable set becomes the care set, the fair set is installed, and
// the checker's saved state is restored on top of them
// (mc.RestoreState), so its checks and witnesses need no fixpoint. ok
// is false with a nil error when no record exists. A corrupt or
// mismatched record is an error and leaves the model cold. Checker
// state that is malformed is ignored as a whole; the counts then read 0
// and the model still starts from the reachable and fair sets, as a
// record without checker state does.
func (st *DiskStore) WarmStart(key string, c *smv.Compiled, ch *mc.Checker) (restored Restored, ok bool, err error) {
	rec, ok, err := st.read(key, c.S.M)
	if err != nil || !ok {
		return Restored{}, false, err
	}
	c.S.SetReachable(rec.reach, rec.iters)
	ch.SetCareSet(rec.reach)
	// SetCareSet clears the fair cache, so the seed must come after it.
	ch.SeedFair(rec.fair)
	// A refused state installs nothing; the counts say so.
	restored.Sets, restored.Rings, _ = ch.RestoreState(rec.state)
	return restored, true, nil
}

// Load restores the warm-start roots for key into m, adopting the saved
// variable order. ok is false with a nil error when no record exists.
// The record's checker state is not returned.
func (st *DiskStore) Load(key string, m *bdd.Manager) (reach, fair bdd.Ref, iters int, ok bool, err error) {
	rec, ok, err := st.read(key, m)
	return rec.reach, rec.fair, rec.iters, ok, err
}

// record is a loaded warm-start record. Its refs are neither protected
// nor registered: the next collection may free them.
type record struct {
	reach, fair bdd.Ref
	iters       int
	state       []bdd.NamedRoot // every root besides reach and fair
}

// read loads key's record into m, adopting the saved variable order.
func (st *DiskStore) read(key string, m *bdd.Manager) (record, bool, error) {
	mf, err := os.Open(st.metaPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return record{}, false, nil
	}
	if err != nil {
		return record{}, false, err
	}
	var meta diskMeta
	err = json.NewDecoder(mf).Decode(&meta)
	mf.Close()
	if err != nil {
		return record{}, false, fmt.Errorf("smvd: corrupt meta record for %.12s: %w", key, err)
	}
	if meta.Key != key {
		return record{}, false, fmt.Errorf("smvd: meta record key mismatch for %.12s", key)
	}
	bf, err := os.Open(st.bddPath(key))
	if err != nil {
		return record{}, false, err
	}
	defer bf.Close()
	// Adopting the saved order replays the sifted order of the process
	// that wrote the record — the dynamic-reordering work is paid once
	// per model, ever.
	roots, err := m.LoadNamed(bf, true)
	if err != nil {
		return record{}, false, fmt.Errorf("smvd: corrupt warm-start record for %.12s: %w", key, err)
	}
	rec := record{iters: meta.ReachIters}
	var haveReach, haveFair bool
	for _, r := range roots {
		switch r.Name {
		case rootReach:
			rec.reach, haveReach = r.Ref, true
		case rootFair:
			rec.fair, haveFair = r.Ref, true
		default:
			rec.state = append(rec.state, r)
		}
	}
	if !haveReach || !haveFair {
		return record{}, false, fmt.Errorf("smvd: warm-start record for %.12s missing named roots", key)
	}
	return rec, true, nil
}

// writeAtomic writes via a temp file in the same directory plus rename.
func writeAtomic(path string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
