package smvd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
	if _, _, _, ok := broken.warmRefs(); ok {
		t.Fatal("broken session still offers a warm-start record")
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

func TestHTTPWorkersShareSession(t *testing.T) {
	sv := newTestServer(t, 8, 0, "")
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	model := jsonString(counterModel)
	if code := post(t, ts, `{"model": `+model+`, "specs": ["AG AF n = 0"]}`); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := post(t, ts, `{"model": `+model+`, "specs": ["AG AF n = 0"], "config": {"workers": 4}}`); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st := sv.Cache.Stats(); st.Misses != 1 || st.Hits != 1 || st.Sessions != 1 {
		t.Fatalf(`"workers": 4 did not hit the session built without it: %+v`, st)
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

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
