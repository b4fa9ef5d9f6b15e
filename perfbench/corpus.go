package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ctl"
	"repro/internal/modelgen"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// corpusEntry is one model of the cold and parallel corpus.
type corpusEntry struct {
	name  string
	src   string
	cfg   smvd.Config
	extra []string // CTL specs checked after the model's own SPECs
	want  verdicts
}

// loadCorpus returns the shipped models under root/models plus three
// scaled ones. Sifting does most of hanoi-7's work, so hanoi-7 and
// chase-16 run with growth-triggered reordering, as `smv -reorder` runs
// them. For the parallel workload every entry also gets the disjunctive
// image and two workers (`smv -disjunctive -workers 2`).
func loadCorpus(root string, parallel bool) ([]corpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(root, "models", "*.smv"))
	if err != nil {
		return nil, err
	}
	if len(paths) != len(shippedVerdicts) {
		return nil, fmt.Errorf("models/ holds %d models, the known answers cover %d", len(paths), len(shippedVerdicts))
	}
	var corpus []corpusEntry
	for _, p := range paths {
		name := filepath.Base(p)
		want, ok := shippedVerdicts[name]
		if !ok {
			return nil, fmt.Errorf("no known answers for models/%s", name)
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, corpusEntry{name: name, src: string(src), want: want})
	}
	arbSpecs, arbHolds := modelgen.ArbiterSpecs(8)
	corpus = append(corpus,
		corpusEntry{name: "hanoi-7", src: modelgen.HanoiSource(7), cfg: smvd.Config{Reorder: true}, want: shippedVerdicts["hanoi.smv"]},
		corpusEntry{name: "chase-16", src: modelgen.ChaseSource(16), cfg: smvd.Config{Reorder: true}, want: shippedVerdicts["chase.smv"]},
		corpusEntry{name: "arbiter-8", src: modelgen.ArbiterSource(8), extra: arbSpecs, want: verdicts{ctl: arbHolds}},
	)
	if parallel {
		for i := range corpus {
			corpus[i].cfg.Disjunctive = true
			corpus[i].cfg.Workers = 2
		}
	}
	return corpus, nil
}

// parse reads the model and its CTL specs: the SPEC sections, then the
// entry's extra specs. The spec counts must match the known answers.
func (e *corpusEntry) parse() (*smv.Module, []spec, error) {
	module, err := smv.ParseModule(e.src)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]spec, 0, len(module.Specs)+len(e.extra))
	for _, sp := range module.Specs {
		specs = append(specs, spec{text: sp.Source, f: sp.Formula})
	}
	for _, text := range e.extra {
		f, err := ctl.Parse(text)
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, spec{text: text, f: f})
	}
	if len(specs) != len(e.want.ctl) || len(module.LTLSpecs) != len(e.want.ltl) {
		return nil, nil, fmt.Errorf("%d CTL and %d LTL specs, but %d and %d known answers",
			len(specs), len(module.LTLSpecs), len(e.want.ctl), len(e.want.ltl))
	}
	return module, specs, nil
}

// check is one cold request: parse, compile, reachability, the fair set,
// every CTL spec with a validated counterexample and every LTL spec with
// a replayed lasso, on a fresh manager.
func (e *corpusEntry) check(t *tracer, root int) (out outcome) {
	var module *smv.Module
	var specs []spec
	var err error
	t.call("smv.parse", root, func() { module, specs, err = e.parse() })
	if err != nil {
		out.fail(e.name, len(e.want.ctl)+len(e.want.ltl), err)
		return out
	}
	var m *model
	t.call("smv.compile", root, func() { m, err = compileModel(module, e.cfg) })
	if err != nil {
		out.fail(e.name, len(e.want.ctl)+len(e.want.ltl), err)
		return out
	}
	t.noteCompile(m)
	m.ready(t, root)
	for i, sp := range specs {
		out.record(e.name+": "+sp.text, e.want.ctl[i], m.checkCTL(sp, t, root))
	}
	t.noteRequest(m, snapshot{})
	out.peakNodes = m.peak()
	for i, sp := range module.LTLSpecs {
		r, peak := checkLTL(module, sp, e.cfg, t, root)
		out.record(e.name+": "+sp.Source, e.want.ltl[i], r)
		out.peakNodes = max(out.peakNodes, peak)
	}
	return out
}

// corpusStream is a client's seeded request order over the corpus: whole
// passes, each a fresh permutation, so every model is requested equally
// often and a phase that stops at a pass boundary has an exact mix.
type corpusStream struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCorpusStream(seed int64, client, n int) *corpusStream {
	s := &corpusStream{rng: rand.New(rand.NewSource(streamSeed(seed, client)))}
	s.perm = s.rng.Perm(n)
	return s
}

func (s *corpusStream) next() int {
	if s.pos == len(s.perm) {
		s.perm = s.rng.Perm(len(s.perm))
		s.pos = 0
	}
	s.pos++
	return s.perm[s.pos-1]
}

// atBoundary reports whether the last request completed a pass.
func (s *corpusStream) atBoundary() bool { return s.pos == len(s.perm) }

// corpusRun is the cold and parallel workload.
type corpusRun struct {
	parallel bool
	corpus   []corpusEntry
}

func (w *corpusRun) setup(int64) error {
	corpus, err := loadCorpus(".", w.parallel)
	if err != nil {
		return err
	}
	// One verified pass before timing proves every answer and grows the
	// Go heap to its working size.
	for i := range corpus {
		if out := corpus[i].check(nil, -1); out.failed > 0 {
			return fmt.Errorf("%s: %d of %d specs failed", corpus[i].name, out.failed, out.specs)
		}
	}
	w.corpus = corpus
	return nil
}

func (w *corpusRun) measure(seed int64, dur time.Duration) loopResult {
	r := w.loop(seed, dur, nil)
	w.report(r)
	return r
}

// loop runs one closed-loop client over seeded passes of the corpus. One
// client keeps the per-model rows of cold and parallel comparable: the
// parallel engine's workers are then the only other busy goroutines.
func (w *corpusRun) loop(seed int64, dur time.Duration, t *tracer) loopResult {
	stream := newCorpusStream(seed, 0, len(w.corpus))
	return closedLoop(1, dur, func(int) (outcome, bool) {
		i := stream.next()
		t0 := time.Now()
		root := t.begin("request", -1)
		out := w.corpus[i].check(t, root)
		t.end(root)
		out.ms = ms(time.Since(t0))
		out.model = i
		if self := t.finish(); self != nil {
			out.witness = self["core.witness"]
			out.basis = self["kripke.reach"] + self["mc.fair"] + self["mc.check"]
		}
		return out, stream.atBoundary()
	})
}

// traced runs the corpus untraced, then traced, for half of dur each.
func (w *corpusRun) traced(seed int64, dur time.Duration) (tracedRun, error) {
	plain := w.loop(seed, dur/2, nil)
	t := newTracer(0)
	traced := w.loop(seed, dur/2, t)
	w.report(traced)
	layers := t.layers()
	setOverhead(layers, plain, traced)
	return tracedRun{layers: layers, phases: []loopResult{plain, traced}, tracers: []*tracer{t}}, nil
}

// report prints one row per corpus model, in corpus order, so that the
// cold and parallel rows line up: median latency, peak live nodes, mean
// counterexample length and, in a traced phase, witness time over check
// time (reachability + fair set + CTL fixpoints).
func (w *corpusRun) report(r loopResult) {
	type row struct {
		lat                  []float64
		peak, traces, states int
		witness, basis       time.Duration
	}
	rows := make([]row, len(w.corpus))
	for _, o := range r.outs {
		x := &rows[o.model]
		x.lat = append(x.lat, o.ms)
		x.peak = max(x.peak, o.peakNodes)
		x.traces += o.traces
		x.states += o.traceStates
		x.witness += o.witness
		x.basis += o.basis
	}
	fmt.Printf("  %-14s %5s %10s %11s %12s %18s\n", "model", "n", "ms_p50", "peak_nodes", "trace_states", "witness_over_check")
	for i, x := range rows {
		sort.Float64s(x.lat)
		wc := "-"
		if x.basis > 0 {
			wc = fmt.Sprintf("%.4f", float64(x.witness)/float64(x.basis))
		}
		fmt.Printf("  %-14s %5d %10.3f %11d %12.1f %18s\n", w.corpus[i].name, len(x.lat),
			percentile(x.lat, 0.5), x.peak, ratio(float64(x.states), float64(x.traces)), wc)
	}
}

func (w *corpusRun) close() {}
