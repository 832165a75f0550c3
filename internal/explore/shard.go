package explore

// Seed-range sharding for fuzz campaigns. A deterministic
// campaign (one worker, a MaxRuns budget, no wall clock) walks seeds
// first, first+1, ... in order and stops at the first failure; that
// outcome is a pure function of the seed range, so the range can be
// partitioned into contiguous shards, each run as its own deterministic
// campaign, and the single-campaign outcome reconstructed
// arithmetically: the lowest failing seed across shards is exactly the
// seed the sequential walk would have stopped at.

// SeedRange is a contiguous slice [First, First+Runs) of a campaign's
// seed space.
type SeedRange struct {
	First uint64 `json:"first"`
	Runs  int    `json:"runs"`
}

// ShardSeeds partitions the seed range [first, first+runs) into at most
// shards contiguous ranges of near-equal size, in seed order. Fewer
// ranges come back when runs < shards; none when runs <= 0.
func ShardSeeds(first uint64, runs, shards int) []SeedRange {
	if runs <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > runs {
		shards = runs
	}
	out := make([]SeedRange, 0, shards)
	base, rem := runs/shards, runs%shards
	next := first
	for i := 0; i < shards; i++ {
		n := base
		if i < rem {
			n++
		}
		out = append(out, SeedRange{First: next, Runs: n})
		next += uint64(n)
	}
	return out
}

// ShardOutcome is one shard campaign's summary: whether it failed and,
// if so, at which (absolute) seed and with what verdict.
type ShardOutcome struct {
	Failed  bool
	Seed    uint64
	Verdict string
}

// MergeSeedShards folds per-shard outcomes back into what a single
// sequential campaign over [first, first+maxRuns) would have reported:
// if any shard failed, the lowest failing seed wins and the run count is
// the number of seeds the sequential walk would have visited before
// stopping there (seed − first + 1); otherwise every seed passed and the
// run count is the full budget. The failure (nil when none) aliases the
// winning outcome.
func MergeSeedShards(first uint64, maxRuns int, outcomes []ShardOutcome) (runs int, failure *ShardOutcome) {
	for i := range outcomes {
		o := &outcomes[i]
		if !o.Failed {
			continue
		}
		if failure == nil || o.Seed < failure.Seed {
			failure = o
		}
	}
	if failure != nil {
		return int(failure.Seed-first) + 1, failure
	}
	return maxRuns, nil
}
