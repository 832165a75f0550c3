package sched

import (
	"fmt"
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/topo"
)

// rngStepper draws every choice from the thread's own generator, which
// SaveState captures, so a restored scheduler can continue the run with
// fresh steppers.
type rngStepper struct{}

func (rngStepper) Step(t *Thread) bool {
	t.Charge(cost.Cycles(1 + t.Rng.Intn(3000)))
	if t.Rng.Intn(40_000) == 0 {
		t.SetDone()
	}
	return t.Rng.Intn(60_000) == 0
}

// restoreWorld is 16 threads on 8 contexts (two per context).
func restoreWorld() *Scheduler {
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	s := NewScheduler(m, topo.Haswell8Way(), 7)
	for i := 0; i < 16; i++ {
		s.AddThread(NewThread(i, m, a, uint64(i)*977+3), rngStepper{})
	}
	return s
}

// crashedRun runs a restoreWorld to h0 and crashes thread 11.
func crashedRun(h0 cost.Cycles) *Scheduler {
	s := restoreWorld()
	s.Run(h0)
	s.Crash(11)
	return s
}

// TestRestoreStateContinuesRun saves the scheduler at several decisions of
// an oversubscribed run with a crashed thread, restores each save into a
// fresh scheduler, and requires the continuation to match the
// uninterrupted run in decisions, clocks and fates. RestoreState rebuilds
// the dense per-context state from the saved queues, so a stale array
// there shows up as a divergent continuation.
func TestRestoreStateContinuesRun(t *testing.T) {
	h0, h := 2*cost.TimesliceQuantum, 5*cost.TimesliceQuantum
	ref := crashedRun(h0)
	start := ref.Decisions()
	ref.Run(h)
	if ref.stats.Preemptions == 0 {
		t.Fatal("the run never preempted: not an oversubscribed schedule")
	}
	n := ref.Decisions() - start
	for k := uint64(1); k <= 5; k++ {
		at := start + n*k/6
		s := crashedRun(h0)
		s.PauseAtDecision(at)
		s.Run(h)
		if !s.Paused() || s.Decisions() != at {
			t.Fatalf("pause at decision %d stopped at %d (paused %v)", at, s.Decisions(), s.Paused())
		}
		fresh := restoreWorld()
		fresh.RestoreState(s.SaveState())
		fresh.Run(h)
		sameSchedule(t, fmt.Sprintf("restored at decision %d", at), fresh, ref)
		s.Run(h)
		sameSchedule(t, fmt.Sprintf("resumed at decision %d", at), s, ref)
	}
}
