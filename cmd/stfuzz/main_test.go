package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run stfuzz's main with its
// command-line arguments instead of the tests, so a test can observe the
// exit status and output of a real invocation.
const runMainEnv = "STFUZZ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// stfuzz runs the command with args and extra environment, returning its
// combined output and exit status.
func stfuzz(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), runMainEnv+"=1"), env...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	default:
		t.Fatalf("stfuzz %v: %v", args, err)
		return "", 0
	}
}

// tinyCampaign is a two-run campaign of a safe scheme that finishes in
// well under a second.
var tinyCampaign = []string{"-ds", "list", "-threads", "2", "-measure-ms", "0.1", "-warmup-ms", "0.05", "-max-runs", "2"}

func TestNegativeThreadsRejected(t *testing.T) {
	out, code := stfuzz(t, nil, append(tinyCampaign, "-threads", "-4")...)
	if code != 2 {
		t.Fatalf("-threads -4 exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-threads") {
		t.Fatalf("-threads -4 error does not name the flag:\n%s", out)
	}
}

func TestBadWorkloadFlagsRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-threads", "65"},
		{"-ds", "bogus"},
		{"-initial", "-5"},
		{"-mutate", "101"},
		{"-mutate", "-1"},
	} {
		out, code := stfuzz(t, nil, append(tinyCampaign, c.flag, c.value)...)
		if code != 2 {
			t.Errorf("%s %s exited %d, want 2; output:\n%s", c.flag, c.value, code, out)
		} else if !strings.Contains(out, c.flag+":") {
			t.Errorf("%s %s error does not name the flag:\n%s", c.flag, c.value, out)
		}
	}
}

func TestSummaryNamesWorkersUsed(t *testing.T) {
	out, code := stfuzz(t, []string{"GOMAXPROCS=2"}, append(tinyCampaign, "-workers", "0")...)
	if code != 0 {
		t.Fatalf("campaign exited %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, ", 2 workers,") {
		t.Fatalf("-workers 0 under GOMAXPROCS=2: summary does not report 2 workers:\n%s", out)
	}
}
