package smvd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/smv"
)

// MaxRequestBytes caps a /check body. It is over 400 times the largest
// shipped model source; a larger body is refused with 413 before any
// session is looked up.
const MaxRequestBytes = 1 << 20

// ErrDeadlineExceeded is wrapped by every error a request's deadline
// causes, and its text is the Error of a spec skipped for lack of time.
var ErrDeadlineExceeded = errors.New("smvd: deadline exceeded")

// ErrQueryPanicked is wrapped by the error Check returns when the query
// panicked. The session is then discarded without writing its
// warm-start record, since its manager may have stopped mid-operation.
var ErrQueryPanicked = errors.New("smvd: query panicked")

// Server is the HTTP face of the session cache.
//
//	POST /check    CheckRequest -> CheckResponse
//	GET  /statsz   StatszResponse (cache counters + per-session stats)
//	GET  /healthz  "ok"
//	     /debug/pprof/...  the standard profiling endpoints
type Server struct {
	Cache *Cache

	// MaxDeadline caps (and DefaultDeadline fills in) the per-request
	// deadline; zero means no cap / no default.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	queries          atomic.Uint64
	specsChecked     atomic.Uint64
	deadlineExceeded atomic.Uint64
	requestErrors    atomic.Uint64
}

// CheckRequest asks for a set of specs to be checked against a model.
// The model and config identify the session; the specs ride along with
// each request, so re-checking edited specs against an unchanged model
// hits the session's cached reachable/fair sets and subformula memo.
type CheckRequest struct {
	Model  string     `json:"model"`
	Config smv.Config `json:"config"`
	Specs  []string   `json:"specs,omitempty"`
	LTL    []string   `json:"ltl,omitempty"`
	// DeadlineMs bounds the whole request, including waiting for the
	// session to come free. 0: server default.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// CheckResponse is the verdict set plus enough cache telemetry for a
// client (or a load harness) to see whether the query was served warm.
type CheckResponse struct {
	ModelKey string `json:"model_key"`
	// Warm reports that the session's reachable/fair sets already
	// existed when this query arrived (earlier query or disk record):
	// the expensive fixpoints were skipped.
	Warm bool `json:"warm"`
	// WarmSource is "" for a session warmed by an earlier in-process
	// query, "disk" for one restored from a warm-start record.
	WarmSource      string        `json:"warm_source,omitempty"`
	ReachableStates float64       `json:"reachable_states"`
	ReachIters      int           `json:"reach_iters"`
	Verdicts        []SpecVerdict `json:"verdicts"`
	Evicted         bool          `json:"evicted,omitempty"` // session left the cache (over budget)
	ElapsedMs       float64       `json:"elapsed_ms"`
}

// StatszResponse is the /statsz payload.
type StatszResponse struct {
	Cache            CacheStats     `json:"cache"`
	Queries          uint64         `json:"queries"`
	SpecsChecked     uint64         `json:"specs_checked"`
	DeadlineExceeded uint64         `json:"deadline_exceeded"`
	RequestErrors    uint64         `json:"request_errors"`
	Sessions         []SessionStats `json:"sessions"`
}

// NewServer wraps a cache in a server with default deadlines.
func NewServer(cache *Cache) *Server {
	return &Server{Cache: cache}
}

// Handler builds the server's mux, including the pprof endpoints so a
// perf regression on a live server can be profiled without rebuilding.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/check", sv.handleCheck)
	mux.HandleFunc("/statsz", sv.handleStatsz)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// deadline resolves the request's absolute deadline; zero means none.
func (sv *Server) deadline(req *CheckRequest, now time.Time) time.Time {
	d := time.Duration(req.DeadlineMs) * time.Millisecond
	if d <= 0 {
		d = sv.DefaultDeadline
	}
	if sv.MaxDeadline > 0 && (d <= 0 || d > sv.MaxDeadline) {
		d = sv.MaxDeadline
	}
	if d <= 0 {
		return time.Time{}
	}
	return now.Add(d)
}

// Check runs one request against the cache — the transport-independent
// core the HTTP handler and in-process harnesses share.
func (sv *Server) Check(req *CheckRequest) (*CheckResponse, error) {
	start := time.Now()
	sv.queries.Add(1)
	if req.Model == "" {
		sv.requestErrors.Add(1)
		return nil, fmt.Errorf("smvd: empty model")
	}
	resp, err := sv.check(req, sv.deadline(req, start))
	if err != nil {
		if errors.Is(err, ErrDeadlineExceeded) {
			sv.deadlineExceeded.Add(1)
		} else {
			sv.requestErrors.Add(1)
		}
		return nil, err
	}
	for _, v := range resp.Verdicts {
		sv.specsChecked.Add(1)
		if v.Error == ErrDeadlineExceeded.Error() {
			sv.deadlineExceeded.Add(1)
		}
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

// check looks up the request's session and runs the query on it. A
// session discarded by a panicking query while this request waited for
// its lock is replaced by a fresh one.
func (sv *Server) check(req *CheckRequest, deadline time.Time) (*CheckResponse, error) {
	for {
		sess, err := sv.Cache.Get(req.Model, req.Config)
		if err != nil {
			return nil, err
		}
		resp, live, err := sv.query(sess, req, deadline)
		if errors.Is(err, errSessionBroken) {
			continue
		}
		if err != nil {
			return nil, err
		}
		resp.Evicted = sv.Cache.EvictOverBudget(sess, live)
		return resp, nil
	}
}

// errSessionBroken reports a session a panicking query discarded.
var errSessionBroken = errors.New("smvd: session discarded")

// query runs req on sess under the session lock and returns the
// response with the manager's live-node count (see Session.liveNodes).
// A panic comes back as an error wrapping ErrQueryPanicked, and the
// session is marked broken, which stops its warm-start record from
// being written, and dropped from the cache.
func (sv *Server) query(sess *Session, req *CheckRequest, deadline time.Time) (resp *CheckResponse, live int, err error) {
	if err := sess.lock(deadline); err != nil {
		return nil, 0, err
	}
	defer sess.unlock()
	if sess.broken {
		return nil, 0, errSessionBroken
	}
	defer func() {
		if p := recover(); p != nil {
			sess.broken = true
			sv.Cache.unlink(sess)
			resp, live, err = nil, 0, fmt.Errorf("%w: %v", ErrQueryPanicked, p)
		}
	}()
	wasReady, verdicts := sess.query(req.Specs, req.LTL, deadline)
	resp = &CheckResponse{
		ModelKey:        sess.Key,
		Warm:            wasReady,
		ReachableStates: sess.reachCount,
		ReachIters:      sess.reachIters,
		Verdicts:        verdicts,
	}
	if wasReady {
		resp.WarmSource = sess.warmSource
	}
	return resp, sess.liveNodes(sv.Cache.nodeBudget), nil
}

func (sv *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req CheckRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		sv.requestErrors.Add(1)
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), code)
		return
	}
	resp, err := sv.Check(&req)
	if err != nil {
		// Compile/parse errors are the client's; deadline misses are 504
		// and panics 500.
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, ErrDeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(err, ErrQueryPanicked):
			code = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (sv *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := StatszResponse{
		Cache:            sv.Cache.Stats(),
		Queries:          sv.queries.Load(),
		SpecsChecked:     sv.specsChecked.Load(),
		DeadlineExceeded: sv.deadlineExceeded.Load(),
		RequestErrors:    sv.requestErrors.Load(),
		Sessions:         sv.Cache.Sessions(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}
