package explore

// Snapshot-accelerated minimization must be a pure speedup: byte-for-byte
// the same verdicts, the same run counts, and the same minimized decision
// lists as cold-start replay — on the committed UAF artifacts and on a
// fresh unminimized failure.

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func pinnedLogs(t *testing.T) []*Log {
	t.Helper()
	files, err := filepath.Glob("testdata/*.schedule")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least 3 pinned schedules, found %d", len(files))
	}
	var logs []*Log
	for _, path := range files {
		log, err := LoadLog(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		logs = append(logs, log)
	}
	return logs
}

// TestReplayFromSnapshotMatchesScratch resumes each pinned artifact from
// its deepest capturable checkpoint and demands the identical outcome a
// cold-start replay produces.
func TestReplayFromSnapshotMatchesScratch(t *testing.T) {
	for _, log := range pinnedLogs(t) {
		log := log
		t.Run(log.Config.Structure, func(t *testing.T) {
			if log.Config.CheckRaces {
				// Snapshot replay is documented-unsound for the race
				// oracle: the detector's vector-clock history is not part
				// of the machine state, so a resumed run misses races
				// whose first access predates the checkpoint. Minimize
				// gates its acceleration off for these logs.
				t.Skip("race-oracle artifacts replay from scratch only")
			}
			scratch, _, err := ReplayLog(log, 0)
			if err != nil {
				t.Fatal(err)
			}
			cache := capturePrefixSnapshots(log.Config, log.Decisions, snapCachePoints)
			if len(cache) == 0 {
				t.Fatal("capture pass produced no checkpoints")
			}
			e := bestSnapshot(cache, log.Decisions)
			if e == nil {
				t.Fatal("no checkpoint valid for the full decision list")
			}
			if e.n != cache[len(cache)-1].n {
				t.Fatalf("full list should resume from the deepest checkpoint (n=%d), got n=%d",
					cache[len(cache)-1].n, e.n)
			}
			forked, err := replay(log.Config, log.Decisions, e.state, e.n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if forked.Verdict != scratch.Verdict {
				t.Fatalf("forked verdict %+v != scratch verdict %+v", forked.Verdict, scratch.Verdict)
			}
			if scratch.Result != nil && forked.Result != nil {
				if forked.Result.Ops != scratch.Result.Ops ||
					forked.Result.UAFReads != scratch.Result.UAFReads ||
					forked.Result.FinalCount != scratch.Result.FinalCount ||
					forked.Result.TotalInserts != scratch.Result.TotalInserts ||
					forked.Result.TotalDeletes != scratch.Result.TotalDeletes {
					t.Fatalf("forked result diverged:\n  forked:  ops=%d uaf=%d final=%d ins=%d del=%d\n  scratch: ops=%d uaf=%d final=%d ins=%d del=%d",
						forked.Result.Ops, forked.Result.UAFReads, forked.Result.FinalCount,
						forked.Result.TotalInserts, forked.Result.TotalDeletes,
						scratch.Result.Ops, scratch.Result.UAFReads, scratch.Result.FinalCount,
						scratch.Result.TotalInserts, scratch.Result.TotalDeletes)
				}
			}
		})
	}
}

// TestSnapshotEntryValidity pins the prefix-matching rule the cache relies
// on: an entry applies exactly when the candidate keeps the checkpointed
// prefix intact.
func TestSnapshotEntryValidity(t *testing.T) {
	ds := []Decision{
		{N: 10, Pick: 1, Pre: -1},
		{N: 20, Pick: 0, Pre: -1},
		{N: 30, Pick: 1, Pre: 1},
	}
	empty := &snapEntry{n: 10}
	deep := &snapEntry{n: 30, prefix: ds[:2]}
	if !empty.validFor(nil) || !empty.validFor(ds) || !empty.validFor(ds[1:]) {
		t.Fatal("the empty-prefix entry must be valid for every subset")
	}
	if !deep.validFor(ds) {
		t.Fatal("deep entry must be valid for the full list")
	}
	if deep.validFor(ds[1:]) {
		t.Fatal("deep entry applied to a candidate missing part of its prefix")
	}
	if deep.validFor(ds[:1]) {
		t.Fatal("deep entry applied to a candidate shorter than its prefix")
	}
	if best := bestSnapshot([]snapEntry{*empty, *deep}, ds[1:]); best == nil || best.n != 10 {
		t.Fatalf("bestSnapshot should fall back to the empty-prefix entry, got %+v", best)
	}
}

// TestMinimizeForkMatchesScratch is the equivalence gate for the ddmin
// acceleration: with and without forking, minimization must visit the same
// number of runs and land on the identical minimized decision list. Run
// with -v to see the measured speedup per artifact (recorded in
// EXPERIMENTS.md).
func TestMinimizeForkMatchesScratch(t *testing.T) {
	logs := pinnedLogs(t)
	// Also a fresh, unminimized failure, so ddmin does nontrivial work:
	// the calibrated raceCfg workload from the minimizer tests.
	out, err := Record(raceCfg("list", StrategyRandom, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verdict.Failed {
		t.Fatal("calibration drifted: random strategy no longer fails raceCfg seed 6")
	}
	logs = append(logs, out.Log)

	for i, log := range logs {
		log := log
		name := log.Config.Structure
		if i == len(logs)-1 {
			name = "fresh-" + name
		}
		t.Run(name, func(t *testing.T) {
			opts := MinimizeOptions{MaxRuns: 400, SameOracle: true}

			t0 := time.Now()
			scratch, err := minimize(log, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			scratchDur := time.Since(t0)

			t0 = time.Now()
			forked, err := Minimize(log, opts)
			if err != nil {
				t.Fatal(err)
			}
			forkDur := time.Since(t0)

			if !reflect.DeepEqual(forked.Log.Decisions, scratch.Log.Decisions) {
				t.Fatalf("minimized schedules diverged:\n  fork:    %+v\n  scratch: %+v",
					forked.Log.Decisions, scratch.Log.Decisions)
			}
			if forked.Verdict != scratch.Verdict {
				t.Fatalf("verdicts diverged: fork %+v, scratch %+v", forked.Verdict, scratch.Verdict)
			}
			if forked.Runs != scratch.Runs || forked.OneMinimal != scratch.OneMinimal {
				t.Fatalf("search shape diverged: fork (%d runs, 1-minimal %v), scratch (%d runs, 1-minimal %v)",
					forked.Runs, forked.OneMinimal, scratch.Runs, scratch.OneMinimal)
			}
			t.Logf("%d -> %d decisions in %d runs: scratch %v, forked %v (%.1fx)",
				forked.FromDecisions, forked.ToDecisions, forked.Runs,
				scratchDur.Round(time.Millisecond), forkDur.Round(time.Millisecond),
				float64(scratchDur)/float64(forkDur))
		})
	}
}
