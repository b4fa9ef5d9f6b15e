package smvd

import (
	"strings"
	"testing"
)

const counterModel = `
MODULE main
VAR
  n    : 0..7;
  tick : boolean;
ASSIGN
  init(n) := 0;
  next(n) := case
    tick : (n + 1) mod 8;
    TRUE : n;
  esac;
FAIRNESS tick
`

const mutexModel = `
MODULE main
VAR
  p1 : {idle, trying, critical};
  p2 : {idle, trying, critical};
  turn : boolean;
ASSIGN
  init(p1) := idle;
  init(p2) := idle;
  next(p1) := case
    p1 = idle                         : {idle, trying};
    p1 = trying & (p2 = idle | !turn) : critical;
    p1 = critical                     : idle;
    TRUE                              : p1;
  esac;
  next(p2) := case
    p2 = idle                    : {idle, trying};
    p2 = trying & p1 != critical : critical;
    p2 = critical                : idle;
    TRUE                         : p2;
  esac;
  next(turn) := case
    p1 = critical : TRUE;
    p2 = critical : FALSE;
    TRUE          : turn;
  esac;
`

func newTestServer(t *testing.T, maxSessions, nodeBudget int, dir string) *Server {
	t.Helper()
	cache, err := NewCache(maxSessions, nodeBudget, dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(cache)
}

func TestModelKeyDistinguishesSourceAndConfig(t *testing.T) {
	base := ModelKey(counterModel, Config{})
	if ModelKey(counterModel, Config{}) != base {
		t.Fatal("ModelKey not deterministic")
	}
	if ModelKey(counterModel+" ", Config{}) == base {
		t.Fatal("source change did not change the key")
	}
	if ModelKey(counterModel, Config{NoComplement: true}) == base {
		t.Fatal("representation change did not change the key")
	}
	// Workers is ignored: every value shares the key, and that key is
	// the one sequential configs always had, so existing warm-start
	// records still match.
	for _, w := range []int{0, 1, 4} {
		if ModelKey(counterModel, Config{Workers: w}) != base {
			t.Fatalf("workers=%d does not share the key of workers=0", w)
		}
	}
	const sequentialKey = "81a088c2a2647da0e76ddb8296e9b435742d49f68fab5b1123cd5848583f2a0f"
	if base != sequentialKey {
		t.Fatalf("sequential key changed: %s, want %s", base, sequentialKey)
	}
}

func TestHotSessionReuse(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	req := &CheckRequest{
		Model: counterModel,
		Specs: []string{"AG AF n = 0", "AG EF n = 7", "AG n = 0"},
	}
	r1, err := sv.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Warm {
		t.Fatal("first query reported warm")
	}
	if r1.ReachableStates != 16 {
		t.Fatalf("reachable states = %v, want 16", r1.ReachableStates)
	}
	want := []bool{true, true, false}
	for i, v := range r1.Verdicts {
		if v.Error != "" {
			t.Fatalf("spec %q: %s", v.Spec, v.Error)
		}
		if v.Holds != want[i] {
			t.Fatalf("spec %q: holds=%v want %v", v.Spec, v.Holds, want[i])
		}
	}
	if !r1.Verdicts[2].Validated || r1.Verdicts[2].Trace == "" {
		t.Fatal("failing spec lacks a validated trace")
	}

	r2, err := sv.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Warm || r2.WarmSource != "" {
		t.Fatalf("second query not hot-warm: warm=%v source=%q", r2.Warm, r2.WarmSource)
	}
	for i, v := range r2.Verdicts {
		if v.Holds != r1.Verdicts[i].Holds {
			t.Fatalf("hot query diverged on %q", v.Spec)
		}
	}
	st := sv.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	// The shared checker's memo and the reachable cache did the reuse.
	ss := sv.Cache.Sessions()
	if len(ss) != 1 || ss[0].MemoHits == 0 {
		t.Fatalf("no memo hits recorded across queries: %+v", ss)
	}
}

func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := &CheckRequest{Model: counterModel, Specs: []string{"AG AF n = 0"}}

	sv1 := newTestServer(t, 8, 0, dir)
	r1, err := sv1.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv1.Cache.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh cache over the same directory.
	sv2 := newTestServer(t, 8, 0, dir)
	r2, err := sv2.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Warm || r2.WarmSource != "disk" {
		t.Fatalf("restarted query not disk-warm: warm=%v source=%q", r2.Warm, r2.WarmSource)
	}
	if r2.ReachableStates != r1.ReachableStates || r2.ReachIters != r1.ReachIters {
		t.Fatalf("warm restart changed reachability: %v/%d vs %v/%d",
			r2.ReachableStates, r2.ReachIters, r1.ReachableStates, r1.ReachIters)
	}
	if r2.Verdicts[0].Holds != r1.Verdicts[0].Holds {
		t.Fatal("warm restart changed the verdict")
	}
	// Reachability was skipped: the frontier fixpoint is the only Image
	// user in CTL checking, and this passing spec generated no witness.
	ss := sv2.Cache.Sessions()
	if len(ss) != 1 {
		t.Fatalf("got %d sessions", len(ss))
	}
	if ss[0].Rel.ImageCalls != 0 {
		t.Fatalf("warm restart ran %d image calls; reachability not skipped", ss[0].Rel.ImageCalls)
	}
	if st := sv2.Cache.Stats(); st.DiskWarmStarts != 1 {
		t.Fatalf("DiskWarmStarts = %d, want 1", st.DiskWarmStarts)
	}
}

func TestBadModelReported(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	_, err := sv.Check(&CheckRequest{Model: "MODULE main\nVAR x : blorp(;"})
	if err == nil {
		t.Fatal("bad model accepted")
	}
	// The failed entry must not poison the cache: a good model compiles.
	if _, err := sv.Check(&CheckRequest{Model: counterModel, Specs: []string{"AG AF n = 0"}}); err != nil {
		t.Fatal(err)
	}
	// And retrying the bad model re-reports the error (fresh entry).
	if _, err := sv.Check(&CheckRequest{Model: "MODULE main\nVAR x : blorp(;"}); err == nil {
		t.Fatal("bad model accepted on retry")
	}
}

func TestLRUEviction(t *testing.T) {
	sv := newTestServer(t, 1, 0, "")
	if _, err := sv.Check(&CheckRequest{Model: counterModel, Specs: []string{"AG AF n = 0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Check(&CheckRequest{Model: mutexModel, Specs: []string{"AG !(p1 = critical & p2 = critical)"}}); err != nil {
		t.Fatal(err)
	}
	st := sv.Cache.Stats()
	if st.Sessions != 1 || st.EvictionsLRU != 1 {
		t.Fatalf("sessions=%d evictionsLRU=%d, want 1/1", st.Sessions, st.EvictionsLRU)
	}
	// The first model was evicted: querying it again is a miss.
	r, err := sv.Check(&CheckRequest{Model: counterModel, Specs: []string{"AG AF n = 0"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Warm {
		t.Fatal("evicted session served warm")
	}
}

func TestNodeBudgetEviction(t *testing.T) {
	sv := newTestServer(t, 8, 1, "") // 1-node budget: everything is over it
	r, err := sv.Check(&CheckRequest{Model: counterModel, Specs: []string{"AG AF n = 0"}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Evicted {
		t.Fatal("over-budget session not evicted")
	}
	if st := sv.Cache.Stats(); st.EvictionsBudget != 1 || st.Sessions != 0 {
		t.Fatalf("evictionsBudget=%d sessions=%d, want 1/0", st.EvictionsBudget, st.Sessions)
	}
}

func TestDeadlineExpiredSpecsReported(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	// Warm the session so the deadline test measures spec dispatch, not
	// compilation.
	if _, err := sv.Check(&CheckRequest{Model: counterModel, Specs: []string{"AG AF n = 0"}}); err != nil {
		t.Fatal(err)
	}
	r, err := sv.Check(&CheckRequest{
		Model:      counterModel,
		Specs:      []string{"AG AF n = 0", "AG EF n = 7"},
		DeadlineMs: -1, // sub-millisecond budgets cannot be expressed; use the past
	})
	// DeadlineMs <= 0 falls back to the server default (none), so this
	// request succeeds; now pin an expired deadline through MaxDeadline.
	if err != nil {
		t.Fatal(err)
	}
	sv.MaxDeadline = 1 // 1ns: expires before the first spec
	r, err = sv.Check(&CheckRequest{
		Model: counterModel,
		Specs: []string{"AG AF n = 0", "AG EF n = 7"},
	})
	if err != nil {
		// The session lock itself may time out; that is also a correct
		// deadline outcome.
		if !strings.HasPrefix(err.Error(), "smvd: deadline exceeded") {
			t.Fatal(err)
		}
		return
	}
	for _, v := range r.Verdicts {
		if v.Error != "smvd: deadline exceeded" {
			t.Fatalf("spec %q not deadline-failed: %+v", v.Spec, v)
		}
	}
}

func TestLTLQuery(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	r, err := sv.Check(&CheckRequest{
		Model: counterModel,
		LTL:   []string{"G F n = 0", "G n = 0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != 2 {
		t.Fatalf("got %d verdicts", len(r.Verdicts))
	}
	if v := r.Verdicts[0]; !v.Holds || v.Error != "" {
		t.Fatalf("G F n = 0 should hold: %+v", v)
	}
	if v := r.Verdicts[1]; v.Holds || v.Error != "" || !v.Validated {
		t.Fatalf("G n = 0 should fail with a validated lasso: %+v", v)
	}
}
