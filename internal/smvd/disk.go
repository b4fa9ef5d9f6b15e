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
	"repro/internal/smv"
)

// On-disk warm-start cache. A model's record is two files keyed by its
// content hash:
//
//	<key>.bdd   serialize v3: variable order + named roots "reach", "fair"
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
// shutdown and reads it on a miss; single-shot clients like
// `smv -cache-dir` call Load and Save directly. Both use the same key
// scheme and file format, so a record written by either warms the
// other.
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
	if st == nil {
		return nil
	}
	reach, fair, iters, ok := s.warmRefs()
	if !ok {
		return nil
	}
	return st.Save(s.Key, s.Cfg, s.compiled.S.M, reach, fair, iters)
}

// Save writes (or refreshes) the warm-start record for key.
func (st *DiskStore) Save(key string, cfg smv.Config, m *bdd.Manager, reach, fair bdd.Ref, iters int) error {
	if err := writeAtomic(st.bddPath(key), func(f *os.File) error {
		return m.SaveNamed(f, []bdd.NamedRoot{
			{Name: rootReach, Ref: reach},
			{Name: rootFair, Ref: fair},
		})
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
	reach, fair, iters, ok, err := st.Load(s.Key, s.compiled.S.M)
	if err != nil || !ok {
		return false, err
	}
	s.warmStart(reach, fair, iters)
	return true, nil
}

// Load restores the warm-start roots for key into m, adopting the saved
// variable order. ok is false with a nil error when no record exists.
func (st *DiskStore) Load(key string, m *bdd.Manager) (reach, fair bdd.Ref, iters int, ok bool, err error) {
	mf, err := os.Open(st.metaPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, 0, false, err
	}
	var meta diskMeta
	err = json.NewDecoder(mf).Decode(&meta)
	mf.Close()
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("smvd: corrupt meta record for %.12s: %w", key, err)
	}
	if meta.Key != key {
		return 0, 0, 0, false, fmt.Errorf("smvd: meta record key mismatch for %.12s", key)
	}
	bf, err := os.Open(st.bddPath(key))
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer bf.Close()
	// Adopting the saved order replays the sifted order of the process
	// that wrote the record — the dynamic-reordering work is paid once
	// per model, ever.
	roots, err := m.LoadNamed(bf, true)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("smvd: corrupt warm-start record for %.12s: %w", key, err)
	}
	var haveReach, haveFair bool
	for _, r := range roots {
		switch r.Name {
		case rootReach:
			reach, haveReach = r.Ref, true
		case rootFair:
			fair, haveFair = r.Ref, true
		}
	}
	if !haveReach || !haveFair {
		return 0, 0, 0, false, fmt.Errorf("smvd: warm-start record for %.12s missing named roots", key)
	}
	return reach, fair, meta.ReachIters, true, nil
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
