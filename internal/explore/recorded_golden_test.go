package explore

// Byte-identity guard for the recorder: the schedule artifacts Record
// writes are pinned as sha256 digests of their WriteFile bytes in
// testdata/recorded_logs.golden. A change to how deviations are stored
// must leave every artifact byte-identical. Regenerate with `go test
// ./internal/explore/ -run RecordedLogGolden -update` only for a
// deliberate change to recorded schedules.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stacktrack/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// recordedLogLine records one log and renders its golden line.
func recordedLogLine(t *testing.T, name string, out *Outcome) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".schedule")
	if err := out.Log.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %x decisions=%d steps=%d verdict=%s\n",
		name, sha256.Sum256(data), len(out.Log.Decisions), out.Steps, out.Verdict)
}

func TestRecordedLogGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		// Explore's defaults: list, StackTrack, 7 threads, random walk —
		// a dense log of hundreds of thousands of deviations.
		{"random-list-stacktrack", RunConfig{}},
		{"pct-skiplist-hp", RunConfig{Structure: bench.StructSkipList, Scheme: "hp", Strategy: StrategyPCT}},
		{"vtime-list-stacktrack", RunConfig{Strategy: StrategyVTime}},
	} {
		out, err := Record(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b.WriteString(recordedLogLine(t, tc.name, out))
		// A vtime log must keep serializing "decisions": null.
		if tc.cfg.Strategy == StrategyVTime && out.Log.Decisions != nil {
			t.Fatalf("vtime log has %d decisions, want a nil list", len(out.Log.Decisions))
		}
	}

	// A forked run: the recording starts numbering at the snapshot's
	// decision boundary.
	cfg := RunConfig{StratSeed: 3}.WithDefaults()
	ses, err := bench.NewSession(cfg.benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ses.RunToVTime(cfg.WarmupCycles) {
		t.Fatal("run ended before the warmup boundary")
	}
	base, err := ses.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out, err := record(cfg, base, base.Decisions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(recordedLogLine(t, "forked-list-stacktrack", out))

	got := b.String()
	path := filepath.Join("testdata", "recorded_logs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("recorded logs diverged from %s (re-run with -update only for a deliberate change)\ngot:\n%swant:\n%s",
			path, got, want)
	}
}
