package smvd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ctl"
	"repro/internal/smv"
)

// cachedSession returns the cached session for src under cfg without
// touching the hit/miss counters.
func cachedSession(t *testing.T, c *Cache, src string, cfg smv.Config) *Session {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sessions[ModelKey(src, cfg)]
	if !ok || e.sess == nil {
		t.Fatal("session not cached")
	}
	return e.sess
}

// post sends body to the server's /check and returns the status code.
func post(t *testing.T, ts *httptest.Server, body string) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestPanickingQueryReleasesSession(t *testing.T) {
	sv := newTestServer(t, 8, 0, t.TempDir())
	req := CheckRequest{Model: counterModel, Specs: []string{"AG n = 0"}, DeadlineMs: 2000}
	if _, err := sv.Check(&req); err != nil {
		t.Fatal(err)
	}
	broken := cachedSession(t, sv.Cache, counterModel, smv.Config{})
	broken.gen = nil // the failing spec's counterexample now panics

	// Hold the session until every request has looked it up, so all of
	// them wait on the lock of the session the first one breaks.
	const n = 4
	if err := broken.lock(time.Time{}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			r := req
			resp, err := sv.Check(&r)
			if err == nil && (len(resp.Verdicts) != 1 || !resp.Verdicts[0].Validated) {
				err = fmt.Errorf("no validated counterexample: %+v", resp)
			}
			errs <- err
		}()
	}
	for sv.Cache.Stats().Hits < n {
		time.Sleep(time.Millisecond)
	}
	broken.unlock()
	panics := 0
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case errors.Is(err, ErrQueryPanicked):
			panics++
		case err != nil:
			t.Errorf("request after the panic: %v", err)
		}
	}
	if panics != 1 {
		t.Fatalf("%d requests report the panic, want 1", panics)
	}
	if n := sv.requestErrors.Load(); n != 1 {
		t.Fatalf("request_errors = %d, want 1", n)
	}
	broken.mu <- struct{}{}
	err := sv.Cache.disk.save(broken)
	broken.unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sv.Cache.disk.metaPath(broken.Key)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("broken session wrote a warm-start record: %v", err)
	}
	if cachedSession(t, sv.Cache, counterModel, smv.Config{}) == broken {
		t.Fatal("broken session still cached")
	}

	done := make(chan error, 1)
	go func() { done <- sv.Cache.FlushAll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FlushAll blocked on the session")
	}
}

func TestHTTPOversizedBodyRejected(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body := `{"model": "` + strings.Repeat("x", MaxRequestBytes) + `"}`
	if code := post(t, ts, body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
	if st := sv.Cache.Stats(); st.Misses != 0 || st.Sessions != 0 {
		t.Fatalf("oversized body reached the cache: %+v", st)
	}
}

func TestHTTPLockWaitPastDeadline(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	if _, err := sv.Check(&CheckRequest{Model: counterModel}); err != nil {
		t.Fatal(err)
	}
	sess := cachedSession(t, sv.Cache, counterModel, smv.Config{})
	if err := sess.lock(time.Time{}); err != nil {
		t.Fatal(err)
	}
	defer sess.unlock()

	body := `{"model": ` + jsonString(counterModel) + `, "specs": ["AG n = 0"], "deadline_ms": 50}`
	if code := post(t, ts, body); code != http.StatusGatewayTimeout {
		t.Fatalf("lock wait past the deadline: status %d, want 504", code)
	}
	if n := sv.deadlineExceeded.Load(); n != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", n)
	}
}

// TestHTTPWorkersShareSession: requests that differ from the first only
// in a retired config field (workers, disjunctive) hit the session built
// without it.
func TestHTTPWorkersShareSession(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	model := jsonString(counterModel)
	if code := post(t, ts, `{"model": `+model+`, "specs": ["AG AF n = 0"]}`); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i, retired := range []string{`"workers": 4`, `"disjunctive": true`} {
		if code := post(t, ts, `{"model": `+model+`, "specs": ["AG AF n = 0"], "config": {`+retired+`}}`); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if st := sv.Cache.Stats(); st.Misses != 1 || st.Hits != uint64(i+1) || st.Sessions != 1 {
			t.Fatalf(`%s did not hit the session built without it: %+v`, retired, st)
		}
	}
}

// TestHTTPOversizedRangeRejected sends the two range declarations that
// used to crash or exhaust the compiler, an enum over the symbol cap and
// an enum with a repeated symbol: each gets 422, and the server answers
// the next valid request.
func TestHTTPOversizedRangeRejected(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	for _, bound := range []string{"99999999999999999999", "100000000"} {
		model := jsonString("MODULE main\nVAR x : 0.." + bound + ";\nSPEC AG x = 0\n")
		if code := post(t, ts, `{"model": `+model+`}`); code != http.StatusUnprocessableEntity {
			t.Fatalf("range 0..%s: status %d, want 422", bound, code)
		}
	}
	syms := make([]string, 4097)
	for i := range syms {
		syms[i] = fmt.Sprintf("e%d", i)
	}
	for name, decl := range map[string]string{
		"4097-symbol enum":     "{" + strings.Join(syms, ", ") + "}",
		"repeated enum symbol": "{e0, e1, e0}",
	} {
		model := jsonString("MODULE main\nVAR s : " + decl + ";\nSPEC AG s = e0\n")
		if code := post(t, ts, `{"model": `+model+`}`); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", name, code)
		}
	}
	if code := post(t, ts, `{"model": `+jsonString(counterModel)+`, "specs": ["AG n = 0"]}`); code != http.StatusOK {
		t.Fatalf("valid request after the rejected ones: status %d", code)
	}
}

// TestHTTPOversizedFormula: a /check that puts a formula over the parser's
// size cap next to a normal spec answers 200, with the size error as the
// first verdict and the second spec checked, and the session keeps
// serving. A model whose SPEC is over the cap gets 422.
func TestHTTPOversizedFormula(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	big := "n = 0"
	for i := 0; i < 30; i++ {
		big = "(" + big + " <-> tick)"
	}
	body, _ := json.Marshal(CheckRequest{Model: counterModel, Specs: []string{big, "AG n = 0"}, LTL: []string{big}})
	hr, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var resp CheckResponse
	err = json.NewDecoder(hr.Body).Decode(&resp)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode error %v", hr.StatusCode, err)
	}
	want := (&ctl.TooLargeError{}).Error()
	if len(resp.Verdicts) != 3 || resp.Verdicts[0].Error != want || resp.Verdicts[2].Error != want {
		t.Fatalf("verdicts %+v, want the size error %q first and last", resp.Verdicts, want)
	}
	if v := resp.Verdicts[1]; v.Error != "" || v.Holds || !v.Validated {
		t.Fatalf("AG n = 0 next to the oversized spec: %+v, want a validated counterexample", v)
	}
	if code := post(t, ts, `{"model": `+jsonString(counterModel)+`, "specs": ["AG n = 0"]}`); code != http.StatusOK {
		t.Fatalf("next request on the session: status %d", code)
	}
	if st := sv.Cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("the next request did not reuse the session: %+v", st)
	}
	model := jsonString(counterModel + "SPEC " + big + "\n")
	if code := post(t, ts, `{"model": `+model+`}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("model with an oversized SPEC: status %d, want 422", code)
	}
}

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestSiftBoundClearedWithoutDeadline: a request with a deadline bounds
// the sift time by a share of what it has left. A later request with no
// deadline must sift unbounded again, not under the bound the earlier
// request left in the manager.
func TestSiftBoundClearedWithoutDeadline(t *testing.T) {
	raw, err := os.ReadFile("../../models/seitz.smv")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	cfg := smv.Config{Reorder: true}
	sv := newTestServer(t, 8, 0, "")
	check := func(maxDeadline time.Duration) {
		t.Helper()
		sv.MaxDeadline = maxDeadline
		if _, err := sv.Check(&CheckRequest{Model: src, Config: cfg}); err != nil && !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatal(err)
		}
	}
	check(0)                // compile and run the fixpoints unbounded
	check(time.Millisecond) // bounds sifting to a quarter of what is left
	check(0)

	sess := cachedSession(t, sv.Cache, src, cfg)
	if err := sess.lock(time.Time{}); err != nil {
		t.Fatal(err)
	}
	defer sess.unlock()
	m := sess.compiled.S.M
	before := m.Stats
	m.SiftNow()
	if m.Stats.SiftTimeouts != before.SiftTimeouts {
		t.Fatalf("sift after a request without a deadline timed out after %d swaps: the previous request's bound is still in force",
			m.Stats.SiftSwaps-before.SiftSwaps)
	}
	if m.Stats.SiftSwaps == before.SiftSwaps {
		t.Fatal("sift made no swap; the model no longer exercises the bound")
	}
}

// TestStatszWalkCounters: a counterexample on a model without FAIRNESS
// closes its EG lasso by the forward walk, and /statsz reports the walk
// per session next to ring_reuses.
func TestStatszWalkCounters(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	if code := post(t, ts, `{"model": `+jsonString(mutexModel)+`, "specs": ["AG AF p1 = critical"]}`); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Sessions []map[string]any `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 1 {
		t.Fatalf("%d sessions in /statsz, want 1", len(st.Sessions))
	}
	ss := st.Sessions[0]
	if ss["walk_closures"] != 1.0 || ss["walk_fallbacks"] != 0.0 || ss["ring_reuses"] == nil {
		t.Fatalf("walk_closures %v, walk_fallbacks %v, ring_reuses %v; want 1, 0 and present",
			ss["walk_closures"], ss["walk_fallbacks"], ss["ring_reuses"])
	}
}
