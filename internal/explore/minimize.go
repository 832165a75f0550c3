package explore

// Counterexample minimization: ddmin (Zeller & Hildebrandt's delta
// debugging) over a failing schedule log's decision list. The deterministic
// simulation is the oracle: a candidate subset of decisions is replayed
// and kept only if the same oracle still fires. Because replay tolerates
// decisions whose moment never comes (see Replay), subsets need no
// alignment fix-ups — remove anything, re-run, observe.

import (
	"fmt"

	"stacktrack/internal/snap"
)

// MinimizeOptions tunes the search.
type MinimizeOptions struct {
	// MaxRuns caps the number of oracle re-runs (0 = 2000). The search
	// returns its best-so-far when the cap strikes, so a tight cap still
	// yields a valid (if not 1-minimal) reduction.
	MaxRuns int
	// SameOracle requires the reduced schedule to fail the *same* oracle
	// as the original; otherwise any failure keeps a candidate.
	SameOracle bool
	// Progress, when non-nil, observes (runs so far, current size).
	Progress func(runs, size int)
}

// MinimizeResult is the outcome of a minimization.
type MinimizeResult struct {
	// Log is the reduced schedule (same config, fewer decisions).
	Log *Log
	// Verdict is the reduced schedule's (still failing) verdict.
	Verdict Verdict
	// FromDecisions/ToDecisions are the decision counts before and after.
	FromDecisions, ToDecisions int
	// Runs is how many oracle re-runs the search spent.
	Runs int
	// OneMinimal reports whether the search completed to 1-minimality
	// (false when MaxRuns struck first).
	OneMinimal bool
}

// Minimize shrinks a failing schedule log to a minimal set of scheduling
// deviations that still triggers its oracle. The input log must fail when
// replayed; otherwise an error is returned.
func Minimize(log *Log, opts MinimizeOptions) (*MinimizeResult, error) {
	return minimize(log, opts, true)
}

// minimize is Minimize with snapshot-accelerated replay switchable: with
// fork false every candidate runs from a cold start. The two are
// semantically identical (asserted by TestMinimizeForkMatchesScratch).
func minimize(log *Log, opts MinimizeOptions, fork bool) (*MinimizeResult, error) {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 2000
	}
	runs := 0
	wantOracle := log.Oracle
	// Snapshot-accelerated replay (see fork.go): checkpoint the current
	// schedule at a few decision boundaries, and resume each candidate
	// from the deepest checkpoint whose prefix it shares. Capture passes
	// are partial replays and do not count against MaxRuns.
	// Race-oracle runs always replay from scratch: sanitizer state is
	// analysis-only and deliberately not snapshotted (the shadow heap is
	// rebuilt from the allocator on restore, but the race detector's
	// vector-clock history cannot be), so a forked replay misses any race
	// whose first access predates the snapshot. The effect checker's
	// findings are analysis-only in the same way, so effect-oracle runs
	// replay from scratch too.
	fork = fork && !log.Config.CheckRaces && !log.Config.CheckEffects
	var cache []snapEntry
	if fork {
		cache = capturePrefixSnapshots(log.Config, log.Decisions, snapCachePoints)
	}
	test := func(ds []Decision) (Verdict, bool) {
		runs++
		var from *snap.State
		var n0 uint64
		if e := bestSnapshot(cache, ds); e != nil {
			from, n0 = e.state, e.n
		}
		out, err := replay(log.Config, ds, from, n0, 0)
		if err != nil {
			return Verdict{}, false
		}
		if !out.Verdict.Failed {
			return out.Verdict, false
		}
		if opts.SameOracle && wantOracle != "" && out.Verdict.Oracle != wantOracle {
			return out.Verdict, false
		}
		return out.Verdict, true
	}

	baseline, ok := test(log.Decisions)
	if !ok {
		return nil, fmt.Errorf("explore: schedule does not fail on replay (got %s); nothing to minimize", baseline)
	}
	if wantOracle == "" {
		wantOracle = baseline.Oracle
	}

	cur := append([]Decision(nil), log.Decisions...)
	verdict := baseline
	oneMinimal := false

	// ddmin: partition into n chunks; try removing each chunk (testing its
	// complement); on success restart with the smaller list; otherwise
	// refine the partition. Finishing the pass at granularity == len(cur)
	// with no removal proves 1-minimality.
	n := 2
	for len(cur) > 0 && runs < opts.MaxRuns {
		if n > len(cur) {
			n = len(cur)
		}
		chunk := (len(cur) + n - 1) / n
		removed := false
		for lo := 0; lo < len(cur) && runs < opts.MaxRuns; lo += chunk {
			hi := lo + chunk
			if hi > len(cur) {
				hi = len(cur)
			}
			cand := make([]Decision, 0, len(cur)-(hi-lo))
			cand = append(cand, cur[:lo]...)
			cand = append(cand, cur[hi:]...)
			if v, failed := test(cand); failed {
				cur, verdict = cand, v
				removed = true
				if opts.Progress != nil {
					opts.Progress(runs, len(cur))
				}
				// Re-checkpoint on the smaller list: as ddmin strips early
				// deviations, the surviving prefix pushes deeper into the
				// run and forked candidates skip correspondingly more.
				if fork {
					cache = capturePrefixSnapshots(log.Config, cur, snapCachePoints)
				}
				break
			}
		}
		switch {
		case removed:
			// Restart coarse on the smaller list.
			if n = 2; len(cur) < 2 {
				n = len(cur)
			}
		case n >= len(cur):
			// Finest granularity and nothing removable: 1-minimal.
			oneMinimal = true
			n = len(cur) + 1
		default:
			n *= 2
		}
		if oneMinimal {
			break
		}
	}
	if len(cur) == 0 {
		oneMinimal = true
	}

	return &MinimizeResult{
		Log:           &Log{Config: log.Config, Oracle: wantOracle, Decisions: cur},
		Verdict:       verdict,
		FromDecisions: len(log.Decisions),
		ToDecisions:   len(cur),
		Runs:          runs,
		OneMinimal:    oneMinimal,
	}, nil
}
