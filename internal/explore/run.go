package explore

// Single-run execution: Record runs a strategy and captures its schedule
// log; ReplayLog re-drives a run from a log. Both go through execute,
// which runs from scratch or from a snapshot and recovers simulated
// crashes (allocator panics) into the crash oracle instead of killing the
// process.

import (
	"stacktrack/internal/bench"
	"stacktrack/internal/sched"
	"stacktrack/internal/snap"
	"stacktrack/internal/trace"
)

// Outcome is one completed exploration run.
type Outcome struct {
	Config  RunConfig
	Verdict Verdict
	// Log is the recorded schedule (Record only; nil after ReplayLog).
	Log *Log
	// Result is the raw harness result; nil when the run crashed.
	Result *bench.Result
	// Steps counts scheduling decisions (Record only).
	Steps uint64
	// Applied lists the first deviations that fired, at most 24 (ReplayLog
	// only): the head a narrative lists.
	Applied []Applied
	// Fired counts every deviation that fired (ReplayLog only).
	Fired int
}

// execute runs one simulation of cfg under policy and judges it: from
// scratch when from is nil, otherwise resumed from that snapshot (which
// it only reads, so concurrent callers may share one). events > 0
// attaches a ring trace of that many events, so the tail where failures
// live survives any length of run. A non-nil error is a configuration
// problem; simulated crashes become the crash oracle's verdict instead.
func execute(cfg RunConfig, policy sched.Policy, from *snap.State, events int) (res *bench.Result, v Verdict, err error) {
	bc := cfg.benchConfig()
	bc.Policy = policy
	if events > 0 {
		bc.TraceEvents, bc.RingTrace = events, true
	}
	var crash any
	func() {
		defer func() { crash = recover() }()
		var ses *bench.Session
		if from != nil {
			ses, err = bench.SessionFromSnapshot(bc, from)
		} else {
			ses, err = bench.NewSession(bc)
		}
		if err == nil {
			res, err = ses.Finish()
		}
	}()
	if err != nil {
		return nil, Verdict{}, err
	}
	return res, judge(cfg, res, crash), nil
}

// Record runs cfg under its named strategy, recording the schedule, and
// returns the judged outcome with a replayable log attached.
func Record(cfg RunConfig) (*Outcome, error) { return record(cfg, nil, 0, 0) }

// record is Record resumed from snapshot from, taken at decision n0 (nil
// and 0 for a run from scratch): the strategy and the recording both start
// there, so the log lines up with a from-scratch replay whose first n0
// decisions follow the default rule.
func record(cfg RunConfig, from *snap.State, n0 uint64, events int) (*Outcome, error) {
	cfg = cfg.WithDefaults()
	strat, err := NewStrategy(cfg)
	if err != nil {
		return nil, err
	}
	rec := NewRecording(strat, n0)
	res, v, err := execute(cfg, rec, from, events)
	if err != nil {
		return nil, err
	}
	log := &Log{Config: cfg, Decisions: rec.Decisions()}
	if v.Failed {
		log.Oracle = v.Oracle
	}
	return &Outcome{Config: cfg, Verdict: v, Log: log, Result: res, Steps: rec.Steps()}, nil
}

// ReplayLog re-drives the simulation from a schedule log and judges it.
// events > 0 additionally records a ring trace of that many events.
func ReplayLog(log *Log, events int) (*Outcome, *trace.Recorder, error) {
	out, err := replay(log.Config, log.Decisions, nil, 0, events)
	if err != nil || out.Result == nil {
		return out, nil, err
	}
	return out, out.Result.Trace, nil
}

// replay is ReplayLog over decisions resumed from snapshot from, taken at
// decision n0: only decisions with N >= n0 replay (the rest are already in
// the snapshot), so Applied and Fired cover only the resumed tail.
func replay(cfg RunConfig, decisions []Decision, from *snap.State, n0 uint64, events int) (*Outcome, error) {
	cfg = cfg.WithDefaults()
	rp := NewReplay(decisions, n0)
	res, v, err := execute(cfg, rp, from, events)
	if err != nil {
		return nil, err
	}
	return &Outcome{Config: cfg, Verdict: v, Result: res, Applied: rp.Applied(), Fired: rp.Fired()}, nil
}
