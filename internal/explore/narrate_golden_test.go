package explore

// Byte-identity guard for narratives: Narrate's full output for a pinned
// minimized artifact and for an unminimized recorded log (far more than
// the listed head of fired deviations, so the "... and N more" line
// shows) is pinned in testdata/narrate.golden. A change to how replays
// keep their fired deviations must leave every narrative byte-identical.
// Regenerate with `go test ./internal/explore/ -run NarrateGolden
// -update` only for a deliberate change to the narrative format.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNarrateGolden(t *testing.T) {
	var b strings.Builder

	pinned, err := LoadLog(filepath.Join("testdata", "list-uaf.schedule"))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== pinned list-uaf.schedule ==\n")
	if _, err := Narrate(&b, pinned, 16); err != nil {
		t.Fatal(err)
	}

	rec, err := Record(raceCfg("list", StrategyRandom, 6))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== recorded list/unsafe seed 6, unminimized ==\n")
	out, err := Narrate(&b, rec.Log, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fired <= maxApplied {
		t.Fatalf("unminimized log fired %d deviations, want more than %d", out.Fired, maxApplied)
	}

	got := b.String()
	path := filepath.Join("testdata", "narrate.golden")
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
		t.Fatalf("narratives diverged from %s (re-run with -update only for a deliberate change)\ngot:\n%swant:\n%s",
			path, got, want)
	}
}
