package sched

// Reference model of the decision loop. Run keeps an incrementally
// maintained ready set (dirty mask, cached occupant clocks); the model
// below is the straightforward original: before every decision it rescans
// every context in ascending order and picks by chasing occupant
// pointers. Driving both over the same workload must give identical
// decisions and identical thread clocks.

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/metrics"
	"stacktrack/internal/rng"
	"stacktrack/internal/topo"
)

// runnableContexts collects the ids of every context with an occupant that
// can step before the horizon, in ascending context order. (It shares the
// side effects of runnable: finished and out-of-horizon occupants are
// retired or rotated past while gathering.)
func runnableContexts(s *Scheduler, until cost.Cycles) []int {
	s.cands = s.cands[:0]
	for _, ctx := range s.contexts {
		if s.runnable(ctx, until) {
			s.cands = append(s.cands, ctx.id)
		}
	}
	return s.cands
}

// refRun is the reference Scheduler.Run for the built-in policy: a full
// candidate rescan and a pointer-chasing minimum-clock pick per decision.
func refRun(s *Scheduler, until cost.Cycles) {
	for {
		cands := runnableContexts(s, until)
		if len(cands) == 0 {
			return
		}
		s.decisions++
		best := 0
		for i := 1; i < len(cands); i++ {
			if s.contexts[cands[i]].queue[0].vtime < s.contexts[cands[best]].queue[0].vtime {
				best = i
			}
		}
		ctx := s.contexts[cands[best]]
		t := ctx.queue[0]

		if len(ctx.queue) > 1 && s.DefaultPreempt(ctx.id) {
			s.rotate(ctx)
			continue
		}

		if t.Blocked != nil {
			if t.Blocked() {
				t.Blocked = nil
				t.pollBackoff = 0
			} else {
				c := blockedPollCost << t.pollBackoff
				if t.pollBackoff < 12 {
					t.pollBackoff++
				}
				t.Charge(c)
				s.ctrPolls.Inc(t.ID)
				if t.Prof != nil {
					t.Prof.AddPhase(metrics.PhaseBlocked, uint64(c))
				}
				ctx.clock = t.vtime
				continue
			}
		}

		before := t.vtime
		if s.steppers[t.ID].Step(t) {
			t.done = true
			s.retireFromContext(ctx)
			continue
		}
		sib := s.siblingLive(t.hw)
		if sib && s.Topo.HTSlowdown > 0 {
			extra := cost.Cycles(float64(t.vtime-before) * s.Topo.HTSlowdown)
			t.Charge(extra)
			if t.Prof != nil {
				t.Prof.AddPhase(metrics.PhaseHTSlow, uint64(extra))
			}
		}
		if sib {
			s.maybeSiblingEvict(t)
		}
		ctx.clock = t.vtime
	}
}

// sameSchedule fails the test unless the two schedulers made the same
// number of decisions and every thread has the same clock and fate.
func sameSchedule(t *testing.T, what string, got, want *Scheduler) {
	t.Helper()
	if got.Decisions() != want.Decisions() {
		t.Fatalf("%s: %d decisions vs %d in the reference model", what, got.Decisions(), want.Decisions())
	}
	for i := range got.threads {
		g, w := got.threads[i], want.threads[i]
		if g.vtime != w.vtime || g.done != w.done || g.crashed != w.crashed {
			t.Fatalf("%s: thread %d clock/done/crashed %d/%v/%v vs %d/%v/%v in the reference model",
				what, i, g.vtime, g.done, g.crashed, w.vtime, w.done, w.crashed)
		}
	}
}

// randomStepper charges a random cost per step and, at random, parks its
// thread on a blocked wait (some of which never wake) or crashes another
// thread. Its draws come from its own generator, so two schedulers running
// identically seeded steppers in the same order see identical behavior.
type randomStepper struct {
	r     *rng.Rand
	sc    *Scheduler
	steps int
	limit int // 0: never finishes
}

func (s *randomStepper) Step(t *Thread) bool {
	s.steps++
	t.Charge(cost.Cycles(1 + s.r.Intn(3000)))
	switch k := s.r.Intn(1000); {
	case k < 40:
		wait, polls := 1+s.r.Intn(20), 0
		if s.r.Intn(8) == 0 {
			wait = -1 // waits on something that never happens
		}
		t.Blocked = func() bool {
			polls++
			return wait > 0 && polls >= wait
		}
	case k < 42:
		if victim := s.r.Intn(len(s.sc.threads)); victim != t.ID {
			s.sc.Crash(victim)
		}
	}
	return s.limit > 0 && s.steps >= s.limit
}

// randomWorld builds a scheduler of n threads with randomStepper workloads
// derived from seed.
func randomWorld(seed uint64, n int) *Scheduler {
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	sc := NewScheduler(m, topo.Haswell8Way(), seed)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		st := &randomStepper{r: rng.New(r.Uint64()), sc: sc}
		if r.Bool(0.3) {
			st.limit = 1 + r.Intn(400)
		}
		sc.AddThread(NewThread(i, m, a, r.Uint64()), st)
	}
	return sc
}

// TestRunMatchesReferenceRandomSchedules is the property test for the
// incremental ready set: over random thread counts (1–40 on 8 contexts,
// so up to 5-way oversubscription), random step costs, random blocked
// waits, finishing and crashing threads, and random horizons (including
// repeated ones), Run and the reference model agree on every decision
// count and every thread clock after every horizon.
func TestRunMatchesReferenceRandomSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed * 0x9E3779B97F4A7C15)
		n := 1 + r.Intn(40)
		got, want := randomWorld(seed, n), randomWorld(seed, n)
		var h cost.Cycles
		for round := 0; round < 25; round++ {
			h += cost.Cycles(r.Intn(40_000))
			if r.Bool(0.15) {
				tid := r.Intn(n)
				got.Crash(tid)
				want.Crash(tid)
			}
			got.Run(h)
			refRun(want, h)
			sameSchedule(t, "random schedule", got, want)
		}
	}
}
