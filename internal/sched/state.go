// Snapshot-state support (internal/snap): the scheduler's mutable state is
// each thread's context (registers, stack pointer, virtual clock, RNG
// stream, mode, bookkeeping), each hardware context's run queue and
// timeline, the jitter stream, the decision counter and the event
// counters.
//
// Restore ordering matters: mem.RestoreState must run before
// Scheduler.RestoreState, because threads re-link their transaction
// descriptors from the memory. Closures (Blocked waits, the slow-path
// accessor) are not serializable; the layers that installed them
// (reclaim, core) reinstall them from their own restored state.

package sched

import (
	"stacktrack/internal/cost"
	"stacktrack/internal/word"
)

// ThreadState is one thread's complete mutable state.
type ThreadState struct {
	ID   int
	Regs [NumRegs]uint64
	SP   int

	VTime      cost.Cycles
	RngS0      uint64
	RngS1      uint64
	Mode       Mode
	TrackSP    bool
	HasTx      bool // an active/doomed transaction descriptor exists in mem
	HasBlocked bool // a Blocked wait was parked (reinstalled by its scheme)

	Running     bool
	Done        bool
	Crashed     bool
	PollBackoff uint8

	TxAllocs []word.Addr

	OpsDone  uint64
	UAFReads uint64
}

// ContextState is one hardware context's queue (as thread ids, occupant
// first) and timeline.
type ContextState struct {
	Queue      []int
	Clock      cost.Cycles
	SliceStart cost.Cycles
}

// State is the scheduler's complete mutable state.
type State struct {
	Threads  []ThreadState
	Contexts []ContextState

	JitterS0  uint64
	JitterS1  uint64
	Decisions uint64
	Stats     Stats
}

// SaveState copies out the scheduler's and every thread's mutable state.
func (s *Scheduler) SaveState() *State {
	st := &State{Decisions: s.decisions, Stats: s.stats}
	st.JitterS0, st.JitterS1 = s.jitter.State()
	for _, t := range s.threads {
		ts := ThreadState{
			ID:          t.ID,
			Regs:        t.regs,
			SP:          t.sp,
			VTime:       t.vtime,
			Mode:        t.Mode,
			TrackSP:     t.TrackSP,
			HasTx:       t.Tx != nil && t.M.CurrentTx(t.ID) == t.Tx,
			HasBlocked:  t.Blocked != nil,
			Running:     t.running,
			Done:        t.done,
			Crashed:     t.crashed,
			PollBackoff: t.pollBackoff,
			TxAllocs:    append([]word.Addr(nil), t.txAllocs...),
			OpsDone:     t.OpsDone,
			UAFReads:    t.UAFReads,
		}
		ts.RngS0, ts.RngS1 = t.Rng.State()
		st.Threads = append(st.Threads, ts)
	}
	for id, q := range s.queues {
		cs := ContextState{Clock: s.clock[id], SliceStart: s.sliceStart[id]}
		for _, t := range q {
			cs.Queue = append(cs.Queue, t.ID)
		}
		st.Contexts = append(st.Contexts, cs)
	}
	return st
}

// RestoreState overwrites the scheduler's and every thread's mutable
// state. The target must have the same thread and context population as
// the save source (same Config); mem.RestoreState must already have run.
func (s *Scheduler) RestoreState(st *State) {
	if len(st.Threads) != len(s.threads) || len(st.Contexts) != len(s.queues) {
		panic("sched: RestoreState population mismatch (different Config?)")
	}
	s.decisions = st.Decisions
	s.stats = st.Stats
	s.jitter.SetState(st.JitterS0, st.JitterS1)
	s.pauseDecOn, s.pauseVTOn, s.pausedFlag = false, false, false
	for i := range st.Threads {
		ts := &st.Threads[i]
		t := s.threads[ts.ID]
		t.regs = ts.Regs
		t.sp = ts.SP
		t.vtime = ts.VTime
		t.Rng.SetState(ts.RngS0, ts.RngS1)
		t.Mode = ts.Mode
		t.TrackSP = ts.TrackSP
		t.Tx = nil
		if ts.HasTx {
			t.Tx = t.M.CurrentTx(t.ID)
		}
		t.Blocked = nil // reinstalled by the owning scheme's restore
		t.running = ts.Running
		t.done = ts.Done
		t.crashed = ts.Crashed
		t.pollBackoff = ts.PollBackoff
		t.txAllocs = append(t.txAllocs[:0], ts.TxAllocs...)
		t.OpsDone = ts.OpsDone
		t.UAFReads = ts.UAFReads
	}
	// The queues are rebuilt wholesale: so are the per-context arrays.
	// The ready set starts empty with every context dirty (the next Run
	// call rebuilds it against its horizon anyway).
	s.readyMask, s.cands = 0, s.cands[:0]
	for id := range s.queues {
		cs := &st.Contexts[id]
		s.queues[id] = s.queues[id][:0]
		for _, tid := range cs.Queue {
			s.queues[id] = append(s.queues[id], s.threads[tid])
		}
		s.occ[id] = nil
		if len(s.queues[id]) > 0 {
			s.occ[id] = s.queues[id][0]
		}
		s.clock[id] = cs.Clock
		s.sliceStart[id] = cs.SliceStart
		s.occVT[id] = notReady
		s.setLive(id, s.occ[id] != nil && !s.occ[id].done)
		s.markDirty(id)
	}
}

// RebuildFrame reconstructs a stack-frame handle against t from a saved
// (base, size) pair — the runner-state restore path. It performs no stack
// accounting; the saved stack pointer already covers the frame.
func (t *Thread) RebuildFrame(base word.Addr, size int) Frame {
	return Frame{t: t, base: base, size: size}
}

// Base returns the frame's base address (for snapshotting).
func (f Frame) Base() word.Addr { return f.base }
