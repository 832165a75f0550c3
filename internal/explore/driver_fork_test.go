package explore

// Fork-heap campaigns and resumable progress: the snapshot-backed driver
// paths must produce artifacts that stand alone (replay from scratch) and
// progress files that actually skip completed work.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestExploreForkHeapFindsReplayableFailure runs a fork-heap campaign over
// a workload where perturbed schedules hit a use-after-free, and then
// replays the reported artifact FROM SCRATCH: the shared warmed prefix ran
// under the default rule, so the log must reproduce without the snapshot.
func TestExploreForkHeapFindsReplayableFailure(t *testing.T) {
	cfg := raceCfg("list", StrategyRandom, 6)
	res, err := ExploreForkHeap(context.Background(), cfg, 1, Budget{MaxRuns: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatalf("no failure in %d forked runs", res.Runs)
	}
	if res.Failure.Log.Config.Seed != cfg.WithDefaults().Seed {
		t.Fatalf("fork-heap campaign varied the workload seed: %d", res.Failure.Log.Config.Seed)
	}
	rep, _, err := ReplayLog(res.Failure.Log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != res.Failure.Verdict {
		t.Fatalf("forked failure does not replay from scratch: campaign %s, replay %s",
			res.Failure.Verdict, rep.Verdict)
	}
}

// TestExploreForkHeapMatchesPlainOnSafeScheme sanity-checks the forked
// path against a safe scheme: no failures, budget respected.
func TestExploreForkHeapMatchesPlainOnSafeScheme(t *testing.T) {
	cfg := tinyCfg("list", "stacktrack", StrategyRandom, 1)
	res, err := ExploreForkHeap(context.Background(), cfg, 2, Budget{MaxRuns: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("safe scheme failed under fork-heap exploration: %s", res.Failure.Verdict)
	}
	if res.Runs > 8 {
		t.Fatalf("budget of 8 runs, campaign made %d", res.Runs)
	}
}

// TestSeedProgressResume interrupts a campaign by budget, resumes it from
// the progress file, and verifies the resumed campaign picks up past the
// frontier instead of redoing completed seeds.
func TestSeedProgressResume(t *testing.T) {
	cfg := tinyCfg("list", "stacktrack", StrategyRandom, 1)
	path := filepath.Join(t.TempDir(), "progress.json")

	prog, err := LoadSeedProgress(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(context.Background(), cfg, 1, Budget{MaxRuns: 5}, prog); err != nil {
		t.Fatal(err)
	}
	if err := prog.Save(); err != nil {
		t.Fatal(err)
	}
	if prog.Completed() != 5 {
		t.Fatalf("first leg completed %d runs, want 5", prog.Completed())
	}

	prog2, err := LoadSeedProgress(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Completed() != 5 {
		t.Fatalf("reloaded progress reports %d runs, want 5", prog2.Completed())
	}
	wantFrontier := cfg.WithDefaults().Seed + 5
	if prog2.Frontier != wantFrontier {
		t.Fatalf("frontier %d after 5 serial runs from seed %d, want %d",
			prog2.Frontier, cfg.WithDefaults().Seed, wantFrontier)
	}
	if next := prog2.claim(); next != wantFrontier {
		t.Fatalf("resumed campaign claimed seed %d, want %d (skip completed work)", next, wantFrontier)
	}

	// A different campaign must be refused.
	other := cfg
	other.Threads = cfg.Threads + 1
	if _, err := LoadSeedProgress(path, other, false); err == nil {
		t.Fatal("progress file accepted for a different campaign")
	}
	if _, err := LoadSeedProgress(path, cfg, true); err == nil {
		t.Fatal("seeds-mode progress file accepted for a fork-heap campaign")
	}
}

// TestSeedProgressCorruptFile: a malformed progress file is an error, not
// a silent restart.
func TestSeedProgressCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "progress.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg("list", "stacktrack", StrategyRandom, 1)
	if _, err := LoadSeedProgress(path, cfg, false); err == nil {
		t.Fatal("corrupt progress file accepted")
	}
}
