package explore

// Invariant oracles: every explored run is judged against the full set, and
// the first violated oracle names the failure. All oracles are pure
// functions of the (deterministic) run result, so a failing verdict
// replays as reliably as the schedule itself.

import (
	"fmt"

	"stacktrack/internal/bench"
)

// Oracle names reported in Verdict.Oracle.
const (
	OraclePoison       = "poison"          // a validated load observed freed memory
	OracleConservation = "conservation"    // final size != initial + inserts - deletes
	OracleCrash        = "crash"           // simulated segfault: double free, wild pointer
	OracleLinearizable = "linearizability" // a key's completed ops admit no legal order
	OracleRace         = "race"            // the sanitizer reported a data race or bad access
	OracleEffects      = "effects"         // an executed block violated its declared effect sets
)

// Verdict is one run's judgement.
type Verdict struct {
	Failed bool   `json:"failed"`
	Oracle string `json:"oracle,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func (v Verdict) String() string {
	if !v.Failed {
		return "ok"
	}
	return fmt.Sprintf("FAIL[%s] %s", v.Oracle, v.Detail)
}

// judge evaluates every oracle against a completed run. crash is the
// recovered panic value of the run, if any (the simulated machine panics on
// double frees and wild pointers — the moral equivalent of a segfault).
func judge(cfg RunConfig, res *bench.Result, crash any) Verdict {
	if crash != nil {
		return Verdict{Failed: true, Oracle: OracleCrash, Detail: fmt.Sprint(crash)}
	}
	if v := judgeRaces(res); v.Failed {
		// Before poison: the sanitizer catches the bad access itself,
		// which is strictly earlier (and more precise) than the poison
		// value the access eventually returned.
		return v
	}
	if v := judgeEffects(res); v.Failed {
		return v
	}
	if res.UAFReads > 0 {
		return Verdict{
			Failed: true, Oracle: OraclePoison,
			Detail: fmt.Sprintf("%d poison (use-after-free) reads", res.UAFReads),
		}
	}
	if v := judgeConservation(cfg, res); v.Failed {
		return v
	}
	if v := judgeLinearizable(cfg, res); v.Failed {
		return v
	}
	return Verdict{}
}

// judgeRaces fails the run when the sanitizer (enabled by
// RunConfig.CheckRaces) reported any violation: a vector-clock data race
// or a shadow-memory bad access (use-after-free, redzone, wild). The
// detail quotes the first report — it carries both access sites with
// thread lanes and virtual times, which is what a minimized schedule
// artifact exists to reproduce.
func judgeRaces(res *bench.Result) Verdict {
	san := res.San
	if san == nil || san.DataRaces+san.UAFAccesses+san.Redzone+san.Wild == 0 {
		return Verdict{}
	}
	detail := fmt.Sprintf("%d data race(s), %d use-after-free, %d redzone, %d wild",
		san.DataRaces, san.UAFAccesses, san.Redzone, san.Wild)
	if len(san.Races) > 0 {
		detail += "; first: " + san.Races[0].String()
	} else if len(san.Accesses) > 0 {
		detail += "; first: " + san.Accesses[0].String()
	}
	return Verdict{Failed: true, Oracle: OracleRace, Detail: detail}
}

// judgeEffects fails the run when the dynamic effect oracle (enabled by
// RunConfig.CheckEffects) observed any access outside a block's declared
// effect sets. A single finding here means the static dataflow facts — and
// any scan elision derived from them — were computed from a lie.
func judgeEffects(res *bench.Result) Verdict {
	san := res.San
	if san == nil || san.EffectViolations == 0 {
		return Verdict{}
	}
	detail := fmt.Sprintf("%d effect violation(s)", san.EffectViolations)
	if len(san.Effects) > 0 {
		detail += "; first: " + san.Effects[0].String()
	}
	return Verdict{Failed: true, Oracle: OracleEffects, Detail: detail}
}

// judgeConservation checks the structure's element count against the exact
// ledger of successful inserts and deletes. A crashed thread may die
// mid-insert/delete, legitimately smearing the count by one per crashed
// thread; the tolerance accounts for that.
func judgeConservation(cfg RunConfig, res *bench.Result) Verdict {
	var want, got, slack int
	switch cfg.Structure {
	case bench.StructQueue:
		want = cfg.QueuePrefill + int(res.TotalInserts) - int(res.TotalDeletes) + 1
		got = int(res.BaselineLive)
	case bench.StructRBTree:
		return Verdict{} // search-only workload: nothing to conserve
	default:
		want = cfg.InitialSize + int(res.TotalInserts) - int(res.TotalDeletes)
		got = res.FinalCount
	}
	slack = cfg.CrashThreads
	if diff := got - want; diff > slack || diff < -slack {
		return Verdict{
			Failed: true, Oracle: OracleConservation,
			Detail: fmt.Sprintf("final count %d, ledger says %d (+%d inserts, -%d deletes)",
				got, want, res.TotalInserts, res.TotalDeletes),
		}
	}
	return Verdict{}
}

// judgeLinearizable checks each key's completed-operation history (when the
// run collected one) with internal/bench's per-key checker. Inconclusive
// (oversized) key histories are skipped, never failed.
func judgeLinearizable(cfg RunConfig, res *bench.Result) Verdict {
	if res.Histories == nil {
		return Verdict{}
	}
	initial := bench.InitialKeys(cfg.benchConfig())
	for k, ops := range res.Histories {
		ok, conclusive := bench.CheckKeyLinearizable(initial[k], ops)
		if conclusive && !ok {
			return Verdict{
				Failed: true, Oracle: OracleLinearizable,
				Detail: fmt.Sprintf("key %d: no legal order for its %d completed ops", k, len(ops)),
			}
		}
	}
	return Verdict{}
}
