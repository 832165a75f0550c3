package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run stsim's main with its
// command-line arguments instead of the tests, so a test can observe the
// exit status and output of a real invocation.
const runMainEnv = "STSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// stsim runs the command with args, returning its stdout, its stderr and
// its exit status.
func stsim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatalf("stsim %v: %v", args, err)
		return "", "", 0
	}
}

// tinyRun is a two-thread list run that finishes in well under a second.
var tinyRun = []string{"-ds", "list", "-scheme", "Epoch", "-threads", "2", "-measure-ms", "0.5", "-warmup-ms", "0.2"}

func TestBadWorkloadFlagsRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-threads", "0"},
		{"-threads", "65"},
		{"-warmup-ms", "-1"},
		{"-scheme", "bogus"},
		{"-ds", "bogus"},
		{"-initial", "-5"},
		{"-mutate", "101"},
		{"-mutate", "-1"},
		{"-checkpoint-at", "-1"},
		{"-checkpoint-at", "NaN"},
		{"-scan-every", "-3"},
		{"-trace", "-4"},
	} {
		_, stderr, code := stsim(t, append(tinyRun, c.flag, c.value)...)
		if code != 2 {
			t.Errorf("%s %s exited %d, want 2; stderr:\n%s", c.flag, c.value, code, stderr)
		} else if !strings.Contains(stderr, c.flag+":") {
			t.Errorf("%s %s error does not name the flag:\n%s", c.flag, c.value, stderr)
		}
	}
}

func TestLowercaseSchemeRuns(t *testing.T) {
	stdout, stderr, code := stsim(t, append(tinyRun, "-scheme", "stacktrack")...)
	if code != 0 {
		t.Fatalf("-scheme stacktrack exited %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, " / StackTrack,") || !strings.Contains(stdout, "\nstacktrack\n") {
		t.Fatalf("-scheme stacktrack did not report a StackTrack run:\n%s", stdout)
	}
}

// TestHeaderPrintsWindowAsGiven: the header prints the window as given,
// neither rounded to a tenth of a millisecond nor carrying the rounding to
// whole cycles (0.3 ms is 0.2999996 ms of cycles).
func TestHeaderPrintsWindowAsGiven(t *testing.T) {
	for _, ms := range []string{"0.05", "0.3"} {
		stdout, stderr, code := stsim(t, append(tinyRun, "-measure-ms", ms)...)
		if code != 0 {
			t.Fatalf("-measure-ms %s exited %d; stderr:\n%s", ms, code, stderr)
		}
		if !strings.Contains(stdout, ", "+ms+" ms measured ") {
			t.Fatalf("-measure-ms %s: header does not report %s ms:\n%s", ms, ms, stdout)
		}
	}
}

// TestCheckpointRestoreMatchesUninterrupted checks the README's claim: a
// run checkpointed mid-way, and the same run restored from that
// checkpoint, both print the report of the run that never paused. The
// restore names no workload flags: the snapshot records its run.
func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	want, stderr, code := stsim(t, tinyRun...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d; stderr:\n%s", code, stderr)
	}
	file := filepath.Join(t.TempDir(), "run.stsnap")
	for _, args := range [][]string{
		append(tinyRun[:len(tinyRun):len(tinyRun)], "-checkpoint-at", "0.3", "-checkpoint-out", file),
		{"-restore", file},
	} {
		out, stderr, code := stsim(t, args...)
		if code != 0 {
			t.Fatalf("%v exited %d; stderr:\n%s", args, code, stderr)
		}
		// The first line says what was written or restored; a blank line
		// separates it from the report.
		status, report, _ := strings.Cut(out, "\n\n")
		if !strings.HasPrefix(status, "stsim: ") || report != want {
			t.Fatalf("%v printed\n%s\nwant a status line, then\n%s", args, out, want)
		}
	}
}

// TestBisectCheckpointStepsIntoFailure checks the README's bisect claim on
// its command, windows shrunk: -bisect reports the decision of the first
// poison read and writes the clean state before it only when -checkpoint-out
// is given, and restoring that state steps into the failure.
func TestBisectCheckpointStepsIntoFailure(t *testing.T) {
	bisect := []string{"-scheme", "UnsafeFree", "-ds", "list", "-threads", "8",
		"-mutate", "60", "-initial", "16", "-measure-ms", "0.05", "-warmup-ms", "0.02", "-bisect"}
	if _, stderr, code := stsim(t, bisect...); code != 1 {
		t.Fatalf("-bisect exited %d, want 1; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat("checkpoint.stsnap"); err == nil {
		os.Remove("checkpoint.stsnap")
		t.Error("-bisect without -checkpoint-out wrote checkpoint.stsnap")
	}
	file := filepath.Join(t.TempDir(), "clean.stsnap")
	out, stderr, code := stsim(t, append(bisect, "-checkpoint-out", file)...)
	if code != 1 || !strings.Contains(out, "first poison read at decision ") {
		t.Fatalf("-bisect exited %d, want 1 and a reported decision; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	out, stderr, code = stsim(t, "-restore", file)
	if code != 0 {
		t.Fatalf("-restore exited %d; stderr:\n%s", code, stderr)
	}
	var uaf int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, " use-after-free reads") {
			fmt.Sscan(line, &uaf)
		}
	}
	if uaf < 1 {
		t.Fatalf("restored clean state made no use-after-free read:\n%s", out)
	}
}
