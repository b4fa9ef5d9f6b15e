package repro

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/smvd"
)

// TestSmvServerMatchesLocal runs the smv binary on every shipped model
// locally and with -server against an in-process smvd. The -server
// stdout must equal the local one
// apart from its closing "-- smvd:" session line, and the exit codes
// must agree: both paths render the verdicts of the same CheckCTL and
// CheckLTL calls with TraceString.
func TestSmvServerMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildBinary(t, "cmd/smv")
	cache, err := smvd.NewCache(4, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(smvd.NewServer(cache).Handler())
	defer srv.Close()
	models, err := filepath.Glob("models/*.smv")
	if err != nil || len(models) == 0 {
		t.Fatalf("no models: %v", err)
	}
	for _, path := range models {
		local, localCode := runSmv(t, bin, path)
		remote, remoteCode := runSmv(t, bin, "-server", srv.URL, path)
		i := bytes.LastIndex(remote, []byte("-- smvd: "))
		if i < 0 || bytes.IndexByte(remote[i:], '\n') != len(remote)-i-1 {
			t.Errorf("%s: -server output does not end with the session line:\n%s", path, remote)
			continue
		}
		if remote = remote[:i]; !bytes.Equal(local, remote) {
			t.Errorf("%s: -server stdout differs from local at %s", path,
				firstDiff(string(remote), string(local)))
		}
		if localCode != remoteCode {
			t.Errorf("%s: exit %d with -server, %d locally", path, remoteCode, localCode)
		}
	}
}

// runSmv runs the smv binary and returns its stdout and exit code.
func runSmv(t *testing.T, bin string, args ...string) ([]byte, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return out, 0
	case errors.As(err, &ee):
		return out, ee.ExitCode()
	}
	t.Fatalf("smv %v: %v", args, err)
	return nil, 0
}
