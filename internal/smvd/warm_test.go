package smvd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/modelgen"
	"repro/internal/smv"
)

// warmModel is a model with every spec it is queried with.
type warmModel struct {
	name, src string
	cfg       smv.Config
	specs     []string
}

// arbiterAndSeitz returns the 8-client arbiter with its specs and
// seitz.smv with its SPECs.
func arbiterAndSeitz(t *testing.T) []warmModel {
	t.Helper()
	raw, err := os.ReadFile("../../models/seitz.smv")
	if err != nil {
		t.Fatal(err)
	}
	module, err := smv.ParseModule(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	seitz := warmModel{name: "seitz", src: string(raw)}
	for _, sp := range module.Specs {
		seitz.specs = append(seitz.specs, sp.Source)
	}
	arbiterSpecs, _ := modelgen.ArbiterSpecs(8)
	return []warmModel{{name: "arbiter-8", src: modelgen.ArbiterSource(8), specs: arbiterSpecs}, seitz}
}

func (w warmModel) request() *CheckRequest {
	return &CheckRequest{Model: w.src, Config: w.cfg, Specs: w.specs}
}

// checkOK runs req and fails the test on a request or verdict error.
func checkOK(t *testing.T, sv *Server, req *CheckRequest) *CheckResponse {
	t.Helper()
	resp, err := sv.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resp.Verdicts {
		if v.Error != "" {
			t.Fatalf("%q: %s", v.Spec, v.Error)
		}
	}
	return resp
}

// sameVerdicts requires got to repeat want verdict by verdict, trace
// text included.
func sameVerdicts(t *testing.T, label string, got, want *CheckResponse) {
	t.Helper()
	if len(got.Verdicts) != len(want.Verdicts) {
		t.Fatalf("%s: %d verdicts, want %d", label, len(got.Verdicts), len(want.Verdicts))
	}
	for i, v := range got.Verdicts {
		if v != want.Verdicts[i] {
			t.Errorf("%s: %q gave\n%+v\nwant\n%+v", label, v.Spec, v, want.Verdicts[i])
		}
	}
}

// restart returns a server over dir, as a restarted smvd would be, and
// its first answer to req, which must come from a disk warm start.
func restart(t *testing.T, dir string, req *CheckRequest) (*Server, *CheckResponse) {
	t.Helper()
	sv := newTestServer(t, 8, 0, dir)
	resp := checkOK(t, sv, req)
	if !resp.Warm || resp.WarmSource != "disk" {
		t.Fatalf("restarted query not disk-warm: warm=%v source=%q", resp.Warm, resp.WarmSource)
	}
	return sv, resp
}

// sessionStats returns the /statsz block of the one cached session.
func sessionStats(t *testing.T, sv *Server) SessionStats {
	t.Helper()
	ss := sv.Cache.Sessions()
	if len(ss) != 1 {
		t.Fatalf("%d sessions, want 1", len(ss))
	}
	return ss[0]
}

// recordRoots reads key's record into a fresh compile of src and
// returns the names of its checker roots.
func recordRoots(t *testing.T, dir string, w warmModel) []string {
	t.Helper()
	st, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := smv.CompileSource(w.src, w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := st.read(ModelKey(w.src, w.cfg), c.S.M)
	if err != nil || !ok {
		t.Fatalf("reading the record: ok=%v err=%v", ok, err)
	}
	var names []string
	for _, r := range rec.state {
		names = append(names, r.Name)
	}
	return names
}

// TestWarmStartRestoresCheckerState: a session restored from disk
// answers and explains all of arbiter-8's and seitz's specs from the
// record's memo, EG seeds and rings: the same verdicts and trace text
// as the cold session, with no EU or EG iteration, no fair-EG round and
// no preimage. /statsz reports what the warm start restored.
func TestWarmStartRestoresCheckerState(t *testing.T) {
	for _, w := range arbiterAndSeitz(t) {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			sv := newTestServer(t, 8, 0, dir)
			cold := checkOK(t, sv, w.request())
			if err := sv.Cache.FlushAll(); err != nil {
				t.Fatal(err)
			}
			sv2, warm := restart(t, dir, w.request())
			sameVerdicts(t, "disk-warm", warm, cold)

			sess := cachedSession(t, sv2.Cache, w.src, w.cfg)
			if err := sess.lock(time.Time{}); err != nil {
				t.Fatal(err)
			}
			st := sess.checker.Stats
			rel := sess.compiled.S.RelStats()
			sess.unlock()
			if st.EUIterations != 0 || st.EGIterations != 0 || st.FairEGOuter != 0 || st.PreimageCalls != 0 || rel.PreimageCalls != 0 {
				t.Fatalf("restored query ran %d EU iterations, %d EG iterations, %d fair-EG rounds and %d (%d) preimages, want 0",
					st.EUIterations, st.EGIterations, st.FairEGOuter, st.PreimageCalls, rel.PreimageCalls)
			}

			ts := httptest.NewServer(sv2.Handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var statsz struct {
				Sessions []map[string]any `json:"sessions"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
				t.Fatal(err)
			}
			ss := statsz.Sessions[0]
			sets, _ := ss["restored_sets"].(float64)
			rings, _ := ss["restored_rings"].(float64)
			if ss["warm_source"] != "disk" || sets == 0 || rings == 0 {
				t.Fatalf("/statsz warm_source %v, restored_sets %v, restored_rings %v; want disk and both above 0",
					ss["warm_source"], ss["restored_sets"], ss["restored_rings"])
			}
		})
	}
}

// TestCollectionBeforeFlushWritesNoRings: a collection between a query
// and the flush — a GC, or a sift under Reorder: true — ends the rings'
// epoch, so the record holds the memo and EG seeds but no ring. The
// restored session recomputes the rings and renders the traces the
// original session renders after the same collection.
func TestCollectionBeforeFlushWritesNoRings(t *testing.T) {
	for _, w := range arbiterAndSeitz(t) {
		for _, reorder := range []bool{false, true} {
			w := w
			w.cfg = smv.Config{Reorder: reorder}
			name := w.name + "/gc"
			if reorder {
				name = w.name + "/sift"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				sv := newTestServer(t, 8, 0, dir)
				checkOK(t, sv, w.request())
				sess := cachedSession(t, sv.Cache, w.src, w.cfg)
				if err := sess.lock(time.Time{}); err != nil {
					t.Fatal(err)
				}
				if reorder {
					sess.compiled.S.M.SiftNow()
				} else {
					sess.compiled.S.M.GC()
				}
				sess.unlock()
				if err := sv.Cache.FlushAll(); err != nil {
					t.Fatal(err)
				}
				names := recordRoots(t, dir, w)
				memo := 0
				for _, n := range names {
					switch {
					case strings.HasPrefix(n, "eu/"), strings.HasPrefix(n, "fg/"):
						t.Fatalf("record written after a collection holds ring root %q", n)
					case strings.HasPrefix(n, "memo/"):
						memo++
					}
				}
				if memo == 0 {
					t.Fatalf("record holds no memo entry: %q", names)
				}
				// The original session after the collection: the reference.
				after := checkOK(t, sv, w.request())

				sv2, warm := restart(t, dir, w.request())
				sameVerdicts(t, "disk-warm", warm, after)
				if ss := sessionStats(t, sv2); ss.RestoredSets == 0 || ss.RestoredRings != 0 {
					t.Fatalf("restored %d sets and %d rings, want some sets and no ring", ss.RestoredSets, ss.RestoredRings)
				}
			})
		}
	}
}

// TestMalformedCheckerStateIgnored: checker roots that do not parse are
// refused as a whole — a ring group without its key, a gap in ring
// indices, an unknown prefix — and the session warm-starts from the
// record's reachable and fair sets alone, with the cold verdicts and
// traces. A record holding only the reachable and fair sets, as
// DiskStore.Save writes it, warms the same way.
func TestMalformedCheckerStateIgnored(t *testing.T) {
	w := warmModel{name: "counter", src: counterModel, specs: []string{"AG AF n = 0", "AG n = 0", "EF (n = 7 & EX n = 0)", "EG !(n = 5)"}}
	dir := t.TempDir()
	sv := newTestServer(t, 8, 0, dir)
	cold := checkOK(t, sv, w.request())
	sess := cachedSession(t, sv.Cache, w.src, w.cfg)
	if err := sess.lock(time.Time{}); err != nil {
		t.Fatal(err)
	}
	state := sess.checker.ExportState()
	reach, iters, _ := sess.compiled.S.ReachableCached()
	fair, _ := sess.checker.CachedFair()
	m := sess.compiled.S.M
	save := func(t *testing.T, roots []bdd.NamedRoot) string {
		t.Helper()
		d := t.TempDir()
		st, err := OpenDiskStore(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.write(sess.Key, sess.Cfg, m, reach, fair, iters, roots); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// The ring group to break: the first with two rings or more.
	group := ""
	for _, r := range state {
		if rest, ok := strings.CutSuffix(r.Name, "/ring/1"); ok && strings.HasPrefix(r.Name, "eu/") {
			group = rest
			break
		}
	}
	if group == "" {
		t.Fatal("no EU ring group with two rings to break")
	}
	without := func(name string) []bdd.NamedRoot {
		var out []bdd.NamedRoot
		for _, r := range state {
			if r.Name != name {
				out = append(out, r)
			}
		}
		if len(out) == len(state) {
			t.Fatalf("no root %q to drop", name)
		}
		return out
	}
	dirs := map[string]string{
		"ring group without its key": save(t, without(group+"/f")),
		"gap in ring indices":        save(t, without(group+"/ring/0")),
		"unknown prefix":             save(t, append(state[:len(state):len(state)], bdd.NamedRoot{Name: "zz/0/f", Ref: bdd.True})),
		"reach and fair only":        save(t, nil),
	}
	sess.unlock()
	for name, d := range dirs {
		t.Run(name, func(t *testing.T) {
			sv2, warm := restart(t, d, w.request())
			sameVerdicts(t, "disk-warm", warm, cold)
			if ss := sessionStats(t, sv2); ss.RestoredSets != 0 || ss.RestoredRings != 0 {
				t.Fatalf("restored %d sets and %d rings, want none", ss.RestoredSets, ss.RestoredRings)
			}
		})
	}
}

// TestLongMemoKeyLeftOut: a subformula whose text is longer than a root
// name may be stays out of the record, the flush succeeds, and the
// restored session answers the same.
func TestLongMemoKeyLeftOut(t *testing.T) {
	long := strings.Repeat("EX ", 1400) + "p1 = critical"
	if len("memo/"+long) <= bdd.MaxSavedNameLen {
		t.Fatalf("spec of %d bytes fits a root name", len(long))
	}
	w := warmModel{name: "mutex", src: mutexModel, specs: []string{long, "AG AF p1 = critical"}}
	dir := t.TempDir()
	sv := newTestServer(t, 8, 0, dir)
	cold := checkOK(t, sv, w.request())
	if err := sv.Cache.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, n := range recordRoots(t, dir, w) {
		if len(n) > bdd.MaxSavedNameLen {
			t.Fatalf("record holds a root name of %d bytes", len(n))
		}
	}
	sv2, warm := restart(t, dir, w.request())
	sameVerdicts(t, "disk-warm", warm, cold)
	if ss := sessionStats(t, sv2); ss.RestoredSets == 0 {
		t.Fatal("the other memo entries were not restored")
	}
}
