// Checkpoint/restore integration (internal/snap): a Session is a
// benchmark run driven incrementally instead of end-to-end, pausable at a
// scheduling-decision or virtual-time boundary, snapshotable at any
// pause, and resumable — in this process (forking) or another one (disk
// restore). A restored run is bit-identical to an uninterrupted one. Every
// run executes through a Session; Run and RunContext simply never pause.
//
// Restore strategy: instead of patching a live run, a restore builds a
// completely fresh instance from the same Config (closures, op tables,
// and the static memory layout are deterministic functions of the
// configuration) and then injects every layer's saved mutable state over
// it, in dependency order — memory, allocator, scheduler (thread contexts
// re-link their transaction descriptors), then the reclamation scheme
// (which reinstalls its wait closures and slow-path accessors), then the
// harness phase machine. Each layer's state carries its own counters.
// Because every State is a deep copy, one snapshot can seed any number of
// restored instances: that is the fork primitive.

package bench

import (
	"encoding/gob"
	"fmt"

	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/metrics"
	"stacktrack/internal/prog"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/snap"
)

// HarnessState is the bench layer's own snapshot payload: the run's
// configuration, the phase machine, the outcome counters, the op-latency
// histogram, the history collector, and each driver's in-flight
// operation. It rides in snap.State.Harness as a gob-registered concrete
// type.
type HarnessState struct {
	// Config is the run the snapshot was taken from, Policy dropped. A
	// restore builds from it (SnapshotConfig) or checks a caller's
	// Config against it, so a differently-shaped instance fails loudly.
	Config Config

	Phase           int
	Horizon         cost.Cycles
	CrashIdx        int
	CrashTries      int
	CrashRunPending bool
	WarmIns         uint64
	WarmDel         uint64
	WarmHits        uint64
	OpsBefore       uint64

	SuccIns  uint64
	SuccDel  uint64
	Hits     uint64
	UAFReads uint64
	Stopping bool
	OpCycles metrics.Histogram

	Histories  map[uint64][]KeyOp
	HistStarts []cost.Cycles

	Drivers []prog.DriverState
	// PlainRunners holds baseline runners' state, indexed like Drivers;
	// empty on StackTrack runs (core.State carries those runners).
	PlainRunners []prog.PlainRunnerState
}

func init() { gob.Register(&HarnessState{}) }

// Clone deep-copies the state, including the Histories map — the one
// reference-typed field a shallow copy would alias. A HarnessState is
// value-semantic through this method: callers that duplicate or retain
// one (the in-process forking paths) go through Clone, never through
// struct assignment.
func (hs *HarnessState) Clone() *HarnessState {
	out := *hs
	out.HistStarts = append([]cost.Cycles(nil), hs.HistStarts...)
	out.Drivers = append([]prog.DriverState(nil), hs.Drivers...)
	out.PlainRunners = append([]prog.PlainRunnerState(nil), hs.PlainRunners...)
	if hs.Histories != nil {
		out.Histories = make(map[uint64][]KeyOp, len(hs.Histories))
		for k, ops := range hs.Histories {
			out.Histories[k] = append([]KeyOp(nil), ops...)
		}
	}
	return &out
}

// fingerprint keeps every Config field that shapes instance construction
// and zeroes the rest. Policy and the observability toggles are dropped:
// they do not change the simulated state, and Policy is not serializable.
func (c Config) fingerprint() Config {
	c.Policy = nil
	c.TraceEvents = 0
	c.RingTrace = false
	c.Profile = false
	c.Sanitize = false
	return c
}

// Session drives one benchmark run incrementally.
type Session struct {
	in *instance
}

// NewSession assembles a pausable run.
func NewSession(cfg Config) (*Session, error) {
	in, err := newInstance(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{in: in}, nil
}

// checkpointable refuses the observability modes whose state lives
// outside the snapshot: the profiler and the tracer would silently lose
// everything recorded before a restore. Narrative replays therefore run
// from scratch.
func checkpointable(cfg Config) error {
	if cfg.Profile {
		return fmt.Errorf("bench: Profile is not supported with checkpointing (profiler state is not snapshotted)")
	}
	if cfg.TraceEvents > 0 {
		return fmt.Errorf("bench: TraceEvents is not supported with checkpointing (trace state is not snapshotted)")
	}
	return nil
}

// Config returns the session's (defaulted) configuration.
func (s *Session) Config() Config { return s.in.cfg }

// Decisions returns how many scheduling decisions have been made so far —
// the currency of schedule logs and snapshot positions.
func (s *Session) Decisions() uint64 { return s.in.sc.Decisions() }

// UAFReads returns the poison (use-after-free) reads observed so far —
// a monotone failure signal, which is what makes virtual-time bisection
// (stsim -bisect) well defined mid-run.
func (s *Session) UAFReads() uint64 { return s.in.uafReads }

// VTime returns the maximum virtual time reached across hardware
// contexts.
func (s *Session) VTime() cost.Cycles {
	var max cost.Cycles
	for _, t := range s.in.threads {
		if v := t.VTime(); v > max {
			max = v
		}
	}
	return max
}

// RunToDecision advances the run until scheduling decision n is about to
// be made. It reports true when the pause fired; false means the
// measurement window ended first (the run is ready for Finish).
func (s *Session) RunToDecision(n uint64) bool {
	s.in.sc.PauseAtDecision(n)
	return s.runToPause()
}

// RunToVTime advances the run until every runnable thread's next step
// lies at or beyond virtual time v. Reports true when the pause fired.
func (s *Session) RunToVTime(v cost.Cycles) bool {
	s.in.sc.PauseAtVTime(v)
	return s.runToPause()
}

func (s *Session) runToPause() bool {
	s.in.advance()
	paused := s.in.sc.Paused()
	if !paused {
		// The phase machine outran the pause point; disarm it so Finish
		// does not stop at a stale boundary.
		s.in.sc.ClearPause()
	}
	return paused
}

// Finish runs the remainder of the benchmark uninterrupted and assembles
// the result. The Result is self-contained, so a successful Finish
// recycles the (large) simulated memory: the session is spent.
func (s *Session) Finish() (*Result, error) {
	s.in.sc.ClearPause()
	s.in.advance()
	res, err := s.in.finish()
	if err == nil {
		s.in.m.Release()
	}
	return res, err
}

// Snapshot copies out the complete simulator state. The returned State
// shares nothing with the live run: the session may continue, and the
// State may seed any number of restores or forks.
func (s *Session) Snapshot() (*snap.State, error) {
	in := s.in
	if err := checkpointable(in.cfg); err != nil {
		return nil, err
	}
	if in.phase == phaseMeasured {
		return nil, fmt.Errorf("bench: nothing to checkpoint after the measurement window")
	}
	st := &snap.State{
		Mem:     in.m.SaveState(),
		Alloc:   in.al.SaveState(),
		Sched:   in.sc.SaveState(),
		Harness: in.saveHarness(),
	}
	if in.st != nil {
		st.Core = in.st.SaveState()
	} else {
		rs, err := reclaim.SaveScheme(in.scheme)
		if err != nil {
			return nil, err
		}
		st.Reclaim = rs
	}
	return st, nil
}

// SnapshotConfig returns the configuration the snapshot's run was built
// from, Policy dropped. A restore that knows nothing else about the run
// (stsim -restore of an stfuzz checkpoint) builds from it.
func SnapshotConfig(st *snap.State) (Config, error) {
	hs, ok := st.Harness.(*HarnessState)
	if !ok {
		return Config{}, fmt.Errorf("bench: snapshot carries no harness state (%T)", st.Harness)
	}
	return hs.Config, nil
}

// SessionFromSnapshot builds a fresh instance from cfg and injects the
// snapshot's state, yielding a session positioned exactly where the
// snapshot was taken. cfg must describe the same run the snapshot came
// from (Policy and the observability toggles may differ — it is the
// caller's job to position any replay policy at st.Decisions()).
func SessionFromSnapshot(cfg Config, st *snap.State) (*Session, error) {
	if err := checkpointable(cfg); err != nil {
		return nil, err
	}
	saved, err := SnapshotConfig(st)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	in := s.in
	if got, want := in.cfg.fingerprint(), saved.fingerprint(); got != want {
		return nil, fmt.Errorf("bench: snapshot was taken under a different configuration\n  snapshot: %+v\n  restore:  %+v", want, got)
	}
	// Dependency order; see the package comment at the top of this file.
	in.m.RestoreState(st.Mem)
	in.al.RestoreState(st.Alloc)
	in.sc.RestoreState(st.Sched)
	switch {
	case in.st != nil:
		if st.Core == nil {
			return nil, fmt.Errorf("bench: snapshot has no StackTrack state for a StackTrack run")
		}
		in.st.RestoreState(st.Core,
			func(tid int) *core.Runner { return in.drivers[tid].Runner.(*core.Runner) },
			in.opByID)
	default:
		if st.Reclaim == nil {
			return nil, fmt.Errorf("bench: snapshot has no reclamation-scheme state for a %s run", in.cfg.Scheme)
		}
		if err := reclaim.RestoreScheme(in.scheme, st.Reclaim); err != nil {
			return nil, err
		}
	}
	if err := in.restoreHarness(st.Harness.(*HarnessState)); err != nil {
		return nil, err
	}
	// Sanitizer state is analysis-only and never snapshotted; rebuild the
	// shadow from the restored allocator and start race detection afresh.
	if in.san != nil {
		in.san.ResetFromAlloc()
	}
	return s, nil
}

// saveHarness copies out the harness's own state.
func (in *instance) saveHarness() *HarnessState {
	hs := &HarnessState{
		Config:          in.cfg,
		Phase:           in.phase,
		Horizon:         in.horizon,
		CrashIdx:        in.crashIdx,
		CrashTries:      in.crashTries,
		CrashRunPending: in.crashRunPending,
		WarmIns:         in.warmIns,
		WarmDel:         in.warmDel,
		WarmHits:        in.warmHits,
		OpsBefore:       in.opsBefore,
		SuccIns:         in.succIns,
		SuccDel:         in.succDel,
		Hits:            in.hits,
		UAFReads:        in.uafReads,
		Stopping:        in.stopping,
		OpCycles:        in.opCycles,
		HistStarts:      append([]cost.Cycles(nil), in.histStarts...),
	}
	hs.Config.Policy = nil
	if in.histories != nil {
		hs.Histories = make(map[uint64][]KeyOp, len(in.histories))
		for k, ops := range in.histories {
			hs.Histories[k] = append([]KeyOp(nil), ops...)
		}
	}
	for _, d := range in.drivers {
		hs.Drivers = append(hs.Drivers, *d.SaveState())
		if pr, isPlain := d.Runner.(*prog.PlainRunner); isPlain {
			hs.PlainRunners = append(hs.PlainRunners, *pr.SaveState())
		}
	}
	return hs
}

// restoreHarness overwrites the harness's state from a snapshot.
func (in *instance) restoreHarness(hs *HarnessState) error {
	if len(hs.Drivers) != len(in.drivers) {
		return fmt.Errorf("bench: snapshot has %d drivers, instance has %d", len(hs.Drivers), len(in.drivers))
	}
	in.phase = hs.Phase
	in.horizon = hs.Horizon
	in.crashIdx = hs.CrashIdx
	in.crashTries = hs.CrashTries
	in.crashRunPending = hs.CrashRunPending
	in.warmIns, in.warmDel, in.warmHits = hs.WarmIns, hs.WarmDel, hs.WarmHits
	in.opsBefore = hs.OpsBefore
	in.succIns, in.succDel, in.hits = hs.SuccIns, hs.SuccDel, hs.Hits
	in.uafReads = hs.UAFReads
	in.stopping = hs.Stopping
	in.opCycles = hs.OpCycles
	copy(in.histStarts, hs.HistStarts)
	if hs.Histories != nil {
		in.histories = make(map[uint64][]KeyOp, len(hs.Histories))
		for k, ops := range hs.Histories {
			in.histories[k] = append([]KeyOp(nil), ops...)
		}
	}
	if n := len(hs.PlainRunners); n != 0 && n != len(in.drivers) {
		return fmt.Errorf("bench: snapshot has %d plain runners, instance has %d drivers", n, len(in.drivers))
	}
	for i, d := range in.drivers {
		d.RestoreState(&hs.Drivers[i], in.opByID)
		if len(hs.PlainRunners) != 0 {
			d.Runner.(*prog.PlainRunner).RestoreState(&hs.PlainRunners[i], in.threads[i], in.opByID)
		}
	}
	return nil
}
