package repro

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

// buildBinary compiles one of the cmd/ programs into a temp dir.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestE2ESmvCLI drives the smv binary over the shipped models exactly
// as a user would.
func TestE2ESmvCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildBinary(t, "cmd/smv")

	t.Run("counter holds", func(t *testing.T) {
		out, err := exec.Command(bin, "-stats", "models/counter.smv").CombinedOutput()
		if err != nil {
			t.Fatalf("counter.smv should verify cleanly: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "is true") || strings.Contains(string(out), "is false") {
			t.Fatalf("unexpected verdicts:\n%s", out)
		}
		if !strings.Contains(string(out), "statistics") {
			t.Fatalf("-stats output missing:\n%s", out)
		}
		// counter.smv's manager never outgrows the computed tables'
		// starting size.
		if !regexp.MustCompile(`computed cache: .*, 4096 entries after 0 growths, `).Match(out) {
			t.Fatalf("-stats lacks the computed-table size:\n%s", out)
		}
	})

	t.Run("mutex fails with exit 1 and a trace", func(t *testing.T) {
		out, err := exec.Command(bin, "models/mutex.smv").CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("want exit 1, got %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "execution sequence") ||
			!strings.Contains(string(out), "p1=critical p2=critical") {
			t.Fatalf("trace missing:\n%s", out)
		}
	})

	t.Run("seitz with tree explanation", func(t *testing.T) {
		out, _ := exec.Command(bin, "-tree", "models/seitz.smv").CombinedOutput()
		if !strings.Contains(string(out), "-- explanation:") ||
			!strings.Contains(string(out), "back to (*)") {
			t.Fatalf("tree output missing:\n%s", out)
		}
	})

	// An LTL product runs its model's relation: the components of a
	// process model's disjunctive partition, a conjunctive partition's
	// clusters otherwise.
	t.Run("LTL product stats name the partition", func(t *testing.T) {
		products := func(model string) []string {
			t.Helper()
			out, _ := exec.Command(bin, "-stats", model).CombinedOutput()
			var lines []string
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(line, "-- LTL product:") {
					lines = append(lines, line)
				}
			}
			return lines
		}
		peterson := products("models/peterson.smv")
		if len(peterson) != 6 {
			t.Fatalf("peterson.smv printed %d LTL product lines, want 6: %q", len(peterson), peterson)
		}
		for _, line := range peterson {
			if !strings.Contains(line, ", 3 components, ") {
				t.Errorf("peterson.smv product line lacks its 3 components: %s", line)
			}
		}
		abp := products("models/abp.smv")
		if len(abp) == 0 || !strings.Contains(abp[0], ", 6 clusters, ") {
			t.Errorf("abp.smv's first product line lacks its 6 clusters: %q", abp)
		}
	})

	t.Run("simulate", func(t *testing.T) {
		out, err := exec.Command(bin, "-simulate", "5", "-delta", "models/cache.smv").CombinedOutput()
		if err != nil {
			t.Fatalf("simulate failed: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "random execution") ||
			!strings.Contains(string(out), "state 5:") {
			t.Fatalf("simulation output malformed:\n%s", out)
		}
	})

	t.Run("bad model exits 2", func(t *testing.T) {
		tmp := filepath.Join(t.TempDir(), "bad.smv")
		if err := os.WriteFile(tmp, []byte("MODULE main VAR x : ;"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := exec.Command(bin, tmp).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("want exit 2, got %v", err)
		}
	})

	// A -cache-dir run writes a record holding the check's sets and
	// rings; the next run restores them, prints the same bytes and runs
	// no EU fixpoint.
	t.Run("-cache-dir warm run repeats the cold one", func(t *testing.T) {
		models, err := filepath.Glob("models/*.smv")
		if err != nil {
			t.Fatal(err)
		}
		run := func(args ...string) (string, int) {
			t.Helper()
			var stdout bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout = &stdout
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			return stdout.String(), code
		}
		eu := regexp.MustCompile(`(?m)^EU fixpoints: +0 \(0 iterations\)$`)
		restored := regexp.MustCompile(`(?m)^warm start: +disk \([1-9][0-9]* restored sets, [1-9][0-9]* restored rings\)$`)
		failing := 0
		for _, model := range models {
			dir := t.TempDir()
			cold, code := run("-cache-dir", dir, model)
			if code != 1 {
				continue // no failing spec
			}
			failing++
			warm, warmCode := run("-cache-dir", dir, model)
			if warm != cold || warmCode != code {
				t.Errorf("%s: warm run (exit %d) prints\n%s\ncold run (exit %d) printed\n%s", model, warmCode, warm, code, cold)
			}
			stats, _ := run("-stats", "-cache-dir", dir, model)
			if !eu.MatchString(stats) || !restored.MatchString(stats) {
				t.Errorf("%s: warm -stats lacks a 0-iteration EU line or restored counts:\n%s", model, stats)
			}
		}
		if failing == 0 {
			t.Fatal("no shipped model has a failing spec")
		}
	})

	// A server that counts the requests reaching it; no subtest expects
	// any.
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request expected", http.StatusTeapot)
	}))
	defer srv.Close()

	// smvd renders every verdict one way, so -server refuses the flags
	// that change checking or rendering locally, before any request.
	t.Run("-server refuses local-only flags", func(t *testing.T) {
		for _, flags := range [][]string{
			{"-simulate", "5"}, {"-stats"}, {"-delta"}, {"-reachable"},
			{"-witness"}, {"-compact"}, {"-tree"}, {"-cache-dir", t.TempDir()},
		} {
			args := append(append([]string{"-server", srv.URL}, flags...), "models/mutex.smv")
			out, err := exec.Command(bin, args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "-server cannot honour "+flags[0]) {
				t.Errorf("%v: want exit 2 naming %s, got %v\n%s", flags, flags[0], err, out)
			}
		}
		if n := requests.Load(); n != 0 {
			t.Errorf("%d requests reached the server", n)
		}
	})

	// A malformed -ltl fails before any spec is checked or sent: the
	// same error in both modes, and nothing on stdout.
	t.Run("malformed -ltl exits 2 before checking", func(t *testing.T) {
		var errs []string
		for _, args := range [][]string{
			{"-ltl", "G (", "models/mutex.smv"},
			{"-server", srv.URL, "-ltl", "G (", "models/mutex.smv"},
		} {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
				t.Errorf("%v: want exit 2, an error and empty stdout, got %v\nstdout:\n%s\nstderr:\n%s",
					args, err, &stdout, &stderr)
			}
			errs = append(errs, stderr.String())
		}
		if errs[0] != errs[1] {
			t.Errorf("local and -server errors differ:\n%s\n%s", errs[0], errs[1])
		}
		if n := requests.Load(); n != 0 {
			t.Errorf("%d requests reached the server", n)
		}
	})

	// A formula over the parser's size cap: nested <-> of depth 30.
	big := "x"
	for i := 0; i < 30; i++ {
		big = "(" + big + " <-> x)"
	}
	t.Run("oversized SPEC exits 2", func(t *testing.T) {
		tmp := filepath.Join(t.TempDir(), "big.smv")
		src := "MODULE main\nVAR x : boolean;\nSPEC " + big + "\n"
		if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, tmp).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "formula too large") {
			t.Fatalf("want exit 2 and the size error, got %v\n%s", err, out)
		}
	})

	t.Run("oversized -ltl exits 2", func(t *testing.T) {
		out, err := exec.Command(bin, "-ltl", big, "models/counter.smv").CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "formula too large") {
			t.Fatalf("want exit 2 and the size error, got %v\n%s", err, out)
		}
	})
}

// TestE2EArbiterBinary runs the case-study binary end to end.
func TestE2EArbiterBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildBinary(t, "cmd/arbiter")
	out, err := exec.Command(bin, "-strategy", "precompute").CombinedOutput()
	if err != nil {
		t.Fatalf("arbiter binary failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"reachable states: 12288",
		"AG (tr1 -> AF ta1) is false",
		"validated against the model",
		"AG !(meol & meor) is true",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestE2EExperimentsSubset runs the experiments binary on the cheap
// experiments and checks the exit code and format.
func TestE2EExperimentsSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildBinary(t, "cmd/experiments")
	out, err := exec.Command(bin, "-only", "E2,E3,E6").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"## E2", "## E3", "## E6", "| quantity | paper | measured |"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "FAILED") {
		t.Fatalf("an experiment failed:\n%s", s)
	}
}
