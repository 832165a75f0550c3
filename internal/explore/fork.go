package explore

// Snapshot-accelerated replay: ddmin re-runs the same schedule prefix
// hundreds of times with only the tail varying, so instead of replaying
// every candidate from a cold start, a capture pass checkpoints the run
// (internal/snap via bench.Session) at a few decision boundaries and each
// candidate resumes from the deepest checkpoint whose applied prefix it
// shares. For the committed minimized UAF artifacts — whose surviving
// deviations sit tens of thousands of decisions into the run — this skips
// essentially the whole warmup and most of the measurement window per
// candidate.

import (
	"stacktrack/internal/bench"
	"stacktrack/internal/snap"
)

// snapCachePoints is how many prefix checkpoints one capture pass takes.
const snapCachePoints = 4

// snapEntry is one cached checkpoint: the complete simulator state paused
// just before scheduling decision n, with exactly prefix applied so far.
type snapEntry struct {
	n      uint64
	prefix []Decision
	state  *snap.State
}

// validFor reports whether a candidate decision list can resume from this
// entry: the candidate's decisions before n must be exactly the prefix
// already baked into the snapshot. (The first capture point has an empty
// prefix and n = the first decision's N, so it is valid for every subset —
// the "longest shared prefix" fork ddmin can always fall back to.)
func (e *snapEntry) validFor(cand []Decision) bool {
	k := 0
	for k < len(cand) && cand[k].N < e.n {
		k++
	}
	if k != len(e.prefix) {
		return false
	}
	for i := 0; i < k; i++ {
		if cand[i] != e.prefix[i] {
			return false
		}
	}
	return true
}

// bestSnapshot returns the deepest cache entry cand can resume from (nil
// when none apply and the candidate must run from scratch).
func bestSnapshot(cache []snapEntry, cand []Decision) *snapEntry {
	for i := len(cache) - 1; i >= 0; i-- {
		if cache[i].validFor(cand) {
			return &cache[i]
		}
	}
	return nil
}

// capturePrefixSnapshots replays decisions once, pausing before up to
// points evenly spread decision numbers and checkpointing at each pause.
// A capture failure (the run ends or crashes before a pause point) simply
// stops the pass; whatever was captured earlier remains valid. The cost is
// one partial replay — repaid many times over by the resumed candidates.
func capturePrefixSnapshots(cfg RunConfig, decisions []Decision, points int) []snapEntry {
	if len(decisions) == 0 || points <= 0 {
		return nil
	}
	bc := cfg.WithDefaults().benchConfig()
	bc.Policy = NewReplay(decisions, 0)
	ses, err := bench.NewSession(bc)
	if err != nil {
		return nil
	}
	if points > len(decisions) {
		points = len(decisions)
	}
	var entries []snapEntry
	for k := 0; k < points; k++ {
		i := k * len(decisions) / points
		n := decisions[i].N
		paused, crashed := runToDecision(ses, n)
		if crashed || !paused {
			break
		}
		st, err := ses.Snapshot()
		if err != nil {
			break
		}
		entries = append(entries, snapEntry{
			n:      n,
			prefix: append([]Decision(nil), decisions[:i]...),
			state:  st,
		})
	}
	return entries
}

// runToDecision advances the session to decision n, converting a simulated
// crash (allocator panic) into a flag instead of killing the process.
func runToDecision(ses *bench.Session, n uint64) (paused, crashed bool) {
	defer func() {
		if recover() != nil {
			crashed = true
		}
	}()
	return ses.RunToDecision(n), false
}
