// Snapshot-state support (internal/snap): StackTrack's mutable state is
// the global slow-path counter, each thread's free set and split-predictor
// tables, and each thread's runner — program counter, frame, segment
// rollback snapshot, and (when one is in flight) the resumable
// SCAN_AND_FREE state machine.
//
// Restore runs against a freshly built instance: the scheduler's thread
// state (registers, stack pointer, mode) is restored by sched, the
// in-flight transaction by mem; this file re-links everything that points
// across layers — the frame handle, the operation by ID, the scanner's
// victim list and the current victim's track mask, the slow-path accessor.

package core

import (
	"sort"

	"stacktrack/internal/cost"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// ScanSnap is a resumable SCAN_AND_FREE state machine's state. One type
// covers both variants; Hashed selects which to rebuild.
type ScanSnap struct {
	Hashed     bool
	Ptrs       []word.Addr
	Found      []bool // per-pointer scan only
	SlowActive bool

	Pi, Ti  int
	Phase   int
	OperPre uint64
	HtmPre  uint64
	Act     uint64 // the victim's activity word the track mask came from
	SP      int
	Pos     int
	RefsLen int
	Hit     bool
	Freed   uint64
	Held    []word.Addr // hashed scan only, sorted
	Ended   bool
}

// RunnerState is one thread's operation-runner state.
type RunnerState struct {
	Busy      bool
	OpID      int
	PC        int
	FrameBase word.Addr
	FrameSize int
	State     uint8
	Resume    uint8
	OpDone    bool

	InTx     bool
	SegPC    int
	SegSP    int
	SegRegs  [sched.NumRegs]uint64
	Steps    int
	Limit    int
	SplitIdx int
	SegFails int
	UsedSlow bool

	RetirePending []word.Addr

	OpStartV  cost.Cycles
	SegStartV cost.Cycles

	Scan *ScanSnap
}

// ThreadState is one thread's StackTrack context.
type ThreadState struct {
	ID      int
	FreeSet []word.Addr

	Limits       [][]int32
	CommitStreak [][]int32
	AbortStreak  [][]int32

	RefsLen int

	Runner *RunnerState // nil when the thread never started an operation
}

// State is the framework's complete mutable state.
type State struct {
	SlowCount int
	Threads   []ThreadState
}

func copyTable(t [][]int32) [][]int32 {
	out := make([][]int32, len(t))
	for i, row := range t {
		out[i] = append([]int32(nil), row...)
	}
	return out
}

// snap copies out the walk's share of a ScanSnap.
func (w *victimWalk) snap() *ScanSnap {
	return &ScanSnap{
		Ptrs:       append([]word.Addr(nil), w.ptrs...),
		SlowActive: w.slowActive,
		Ti:         w.ti, Phase: w.phase,
		OperPre: w.operPre, HtmPre: w.htmPre,
		Act: w.act, SP: w.sp, Pos: w.pos, RefsLen: w.refsLen,
		Ended: w.ended,
	}
}

// saveScan copies out an in-flight scan. Hit is always false: a hit is
// consumed within the step that found it.
func saveScan(s scanner) *ScanSnap {
	switch sc := s.(type) {
	case *scanState:
		snap := sc.snap()
		snap.Found = append([]bool(nil), sc.found...)
		snap.Pi, snap.Freed = sc.pi, sc.freed
		return snap
	case *hashedScanState:
		snap := sc.snap()
		snap.Hashed = true
		for p := range sc.held {
			snap.Held = append(snap.Held, p)
		}
		sort.Slice(snap.Held, func(i, j int) bool { return snap.Held[i] < snap.Held[j] })
		return snap
	case nil:
		return nil
	default:
		panic("core: unknown scanner type in SaveState")
	}
}

func (st *StackTrack) restoreScan(snap *ScanSnap) scanner {
	if snap == nil {
		return nil
	}
	w := victimWalk{
		st:         st,
		ptrs:       append([]word.Addr(nil), snap.Ptrs...),
		victims:    st.sc.Threads(),
		slowActive: snap.SlowActive,
		ended:      snap.Ended,
		ti:         snap.Ti, phase: snap.Phase,
		operPre: snap.OperPre, htmPre: snap.HtmPre,
		sp: snap.SP, pos: snap.Pos, refsLen: snap.RefsLen,
	}
	w.setMask(snap.Act)
	if snap.Hashed {
		sc := &hashedScanState{victimWalk: w, held: make(map[word.Addr]struct{}, len(snap.Held))}
		for _, p := range snap.Held {
			sc.held[p] = struct{}{}
		}
		return sc
	}
	return &scanState{
		victimWalk: w,
		found:      append([]bool(nil), snap.Found...),
		pi:         snap.Pi,
		freed:      snap.Freed,
	}
}

// SaveState copies out the runner's state.
func (r *Runner) SaveState() *RunnerState {
	rs := &RunnerState{
		Busy:  r.state != stIdle,
		State: uint8(r.state), Resume: uint8(r.resume), OpDone: r.opDone,
		InTx: r.inTx, SegPC: r.segPC, SegSP: r.segSP, SegRegs: r.segRegs,
		Steps: r.steps, Limit: r.limit, SplitIdx: r.splitIdx,
		SegFails: r.segFails, UsedSlow: r.usedSlow,
		RetirePending: append([]word.Addr(nil), r.retirePending...),
		OpStartV:      r.opStartV, SegStartV: r.segStartV,
		Scan: saveScan(r.scan),
	}
	if r.op != nil {
		rs.OpID = r.op.ID
		rs.PC = r.pc
		rs.FrameBase = r.frame.Base()
		rs.FrameSize = r.frame.Size()
	}
	return rs
}

// RestoreState overwrites the runner from a saved state. opByID resolves
// operation IDs against the restore target's own op table.
func (r *Runner) RestoreState(rs *RunnerState, t *sched.Thread, opByID func(id int) *prog.Op) {
	r.state = runnerState(rs.State)
	r.resume = runnerState(rs.Resume)
	r.opDone = rs.OpDone
	r.inTx = rs.InTx
	r.segPC, r.segSP, r.segRegs = rs.SegPC, rs.SegSP, rs.SegRegs
	r.steps, r.limit, r.splitIdx, r.segFails = rs.Steps, rs.Limit, rs.SplitIdx, rs.SegFails
	r.usedSlow = rs.UsedSlow
	r.retirePending = append(r.retirePending[:0], rs.RetirePending...)
	r.opStartV, r.segStartV = rs.OpStartV, rs.SegStartV
	r.scan = r.st.restoreScan(rs.Scan)
	r.op = nil
	if rs.Busy {
		r.op = opByID(rs.OpID)
		r.pc = rs.PC
		r.frame = t.RebuildFrame(rs.FrameBase, rs.FrameSize)
	}
}

// SaveState copies out the framework's complete mutable state.
func (st *StackTrack) SaveState() *State {
	s := &State{SlowCount: st.slowCount}
	for tid, ts := range st.threads {
		if ts == nil {
			continue
		}
		cs := ThreadState{
			ID:           tid,
			FreeSet:      append([]word.Addr(nil), ts.freeSet...),
			Limits:       copyTable(ts.limits),
			CommitStreak: copyTable(ts.commitStreak),
			AbortStreak:  copyTable(ts.abortStreak),
			RefsLen:      ts.refsLen,
		}
		if ts.runner != nil {
			cs.Runner = ts.runner.SaveState()
		}
		s.Threads = append(s.Threads, cs)
	}
	return s
}

// RestoreState overwrites the framework's state. runnerOf supplies the
// restore target's per-thread runner (bench owns them); opByID resolves
// operation IDs. sched.RestoreState must already have run (it sets each
// thread's access mode), because the slow-path accessor is reinstalled
// here for threads that were mid-slow-path.
func (st *StackTrack) RestoreState(s *State, runnerOf func(tid int) *Runner, opByID func(id int) *prog.Op) {
	st.slowCount = s.SlowCount
	for i := range s.Threads {
		cs := &s.Threads[i]
		ts := st.threads[cs.ID]
		if ts == nil {
			panic("core: RestoreState for unattached thread (different Config?)")
		}
		ts.freeSet = append(ts.freeSet[:0], cs.FreeSet...)
		ts.limits = copyTable(cs.Limits)
		ts.commitStreak = copyTable(cs.CommitStreak)
		ts.abortStreak = copyTable(cs.AbortStreak)
		ts.refsLen = cs.RefsLen
		ts.runner = nil
		t := st.sc.Threads()[cs.ID]
		t.Slow = slowAccessor{st: st}
		if cs.Runner != nil {
			r := runnerOf(cs.ID)
			r.RestoreState(cs.Runner, t, opByID)
			ts.runner = r
		}
	}
}
