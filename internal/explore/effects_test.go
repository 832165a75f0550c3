package explore

import (
	"context"
	"path/filepath"
	"testing"

	"stacktrack/internal/bench"
)

// TestEffectOracleOnPinnedSchedules replays every pinned failure artifact
// with the effect oracle armed. The schedules were saved for *other*
// oracles (poison, race) under adversarial interleavings — exactly the
// runs where a wrong effect annotation would surface — so the declared
// Reads/Writes/LoadsPtr/Kills sets must hold on all of them: the verdict
// may still fail, but never via the effects oracle, and the report must
// carry zero effect violations.
func TestEffectOracleOnPinnedSchedules(t *testing.T) {
	files, err := filepath.Glob("testdata/*.schedule")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no pinned schedule artifacts found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			log, err := LoadLog(path)
			if err != nil {
				t.Fatal(err)
			}
			log.Config.CheckEffects = true

			rep, _, err := ReplayLog(log, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict.Oracle == OracleEffects {
				t.Fatalf("effects oracle fired on a pinned schedule: %s", rep.Verdict)
			}
			if rep.Result != nil && rep.Result.San != nil && rep.Result.San.EffectViolations != 0 {
				t.Fatalf("%d effect violation(s) on replay:\n%s",
					rep.Result.San.EffectViolations, rep.Result.San)
			}
		})
	}
}

// TestEffectOracleFreshSeeds fuzzes the effect oracle across fresh
// workload seeds and random schedules, rotating through every structure.
// Any failure here means an internal/ds effect annotation lies about some
// reachable block — the exact bug class the static dataflow facts (and the
// scanner's elision masks) would silently inherit.
func TestEffectOracleFreshSeeds(t *testing.T) {
	structures := []string{
		bench.StructList, bench.StructSkipList, bench.StructQueue,
		bench.StructHash, bench.StructRBTree,
	}
	perStructure := 20 // 5 structures × 20 seeds = 100 fresh runs
	if testing.Short() {
		perStructure = 3
	}
	for _, s := range structures {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{
				Structure:    s,
				Scheme:       bench.SchemeStackTrack,
				Threads:      4,
				Seed:         1000,
				Strategy:     StrategyRandom,
				CheckEffects: true,
			}
			res, err := Explore(context.Background(), cfg, 2, Budget{MaxRuns: perStructure}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failure != nil {
				t.Fatalf("seed %d failed: %s", res.Failure.Seed, res.Failure.Verdict)
			}
		})
	}
}
