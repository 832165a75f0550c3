package sched

// The decision loop reads each context's state from dense arrays (occ,
// occVT, sliceStart, sibLive, readyMask) that every queue mutation must
// keep in step. checkedPolicy re-derives all of it from the run queues at
// every decision, so a mutation site that forgets an array fails here at
// the decision it goes stale, not only when the schedule later diverges.

import (
	"fmt"
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/rng"
)

// checkedPolicy checks the dense per-context state at every Pick and
// Preempt, then decides at random (default rule most of the time), so the
// checks also run in states the default schedule never reaches.
type checkedPolicy struct {
	t     *testing.T
	r     *rng.Rand
	until cost.Cycles // horizon of the Run in progress

	// Switch-in count and per-context slice starts seen at the previous
	// decision: a slice start that moved since then belongs to a thread
	// switched in since, so it equals that occupant's clock (it has not
	// stepped since), and no more slice starts moved than switch-ins
	// happened.
	switches uint64
	start    []cost.Cycles
	checks   int
}

func newCheckedPolicy(t *testing.T, s *Scheduler, seed uint64) *checkedPolicy {
	return &checkedPolicy{
		t: t, r: rng.New(seed),
		start: append([]cost.Cycles(nil), s.sliceStart...),
	}
}

func (p *checkedPolicy) Pick(s *Scheduler, cands []int) int {
	p.check(s, cands)
	want := 0
	for i := range cands {
		if s.queues[cands[i]][0].vtime < s.queues[cands[want]][0].vtime {
			want = i
		}
	}
	if got := s.DefaultPick(cands); got != want {
		p.t.Fatalf("decision %d: DefaultPick = %d, pointer-chasing argmin over %v = %d", s.Decisions(), got, cands, want)
	}
	if p.r.Bool(0.2) {
		return p.r.Intn(len(cands))
	}
	return want
}

func (p *checkedPolicy) Preempt(s *Scheduler, ctx int) bool {
	p.check(s, s.cands)
	want := s.queues[ctx][0].vtime-s.sliceStart[ctx] >= cost.TimesliceQuantum
	if got := s.DefaultPreempt(ctx); got != want {
		p.t.Fatalf("decision %d: DefaultPreempt(%d) = %v, from the queue %v", s.Decisions(), ctx, got, want)
	}
	return want || p.r.Bool(0.05)
}

// check compares every dense array with its value derived from the queues.
func (p *checkedPolicy) check(s *Scheduler, cands []int) {
	p.t.Helper()
	p.checks++
	fail := func(format string, args ...any) {
		p.t.Helper()
		p.t.Fatalf("decision %d: %s", s.Decisions(), fmt.Sprintf(format, args...))
	}
	var ready uint64
	var want []int
	var moved uint64
	for id, q := range s.queues {
		var occ *Thread
		if len(q) > 0 {
			occ = q[0]
		}
		if s.occ[id] != occ {
			fail("occ[%d] is not queue[0]", id)
		}
		if occ != nil && !occ.done && occ.vtime < p.until {
			ready |= 1 << uint(id)
			want = append(want, id)
			if s.occVT[id] != occ.vtime {
				fail("occVT[%d] = %d, occupant clock %d", id, s.occVT[id], occ.vtime)
			}
		} else if s.occVT[id] != notReady {
			fail("occVT[%d] = %d for a context that cannot step", id, s.occVT[id])
		}
		if occ != nil && s.sliceStart[id] != p.start[id] {
			moved++
			if s.sliceStart[id] != occ.vtime {
				fail("sliceStart[%d] = %d, thread %d switched in at %d", id, s.sliceStart[id], occ.ID, occ.vtime)
			}
		}
		var live int32
		for j := range s.queues {
			if j != id && s.Topo.CoreOf(j) == s.Topo.CoreOf(id) && len(s.queues[j]) > 0 && !s.queues[j][0].done {
				live++
			}
		}
		if s.sibLive[id] != live {
			fail("sibLive[%d] = %d, %d live siblings in the queues", id, s.sibLive[id], live)
		}
	}
	if s.readyMask != ready {
		fail("readyMask = %b, queues say %b", s.readyMask, ready)
	}
	if fmt.Sprint(cands) != fmt.Sprint(want) {
		fail("cands = %v, queues say %v", cands, want)
	}
	if n := s.stats.ContextSwitches - p.switches; moved > n {
		fail("%d slice starts moved across %d switch-ins", moved, n)
	}
	p.switches = s.stats.ContextSwitches
	copy(p.start, s.sliceStart)
}

// TestDenseStateMatchesQueues runs random worlds — 1–40 threads on 8
// contexts, crashes from inside steps and between runs, SetDone inside
// steps, blocked waits, random horizons — under checkedPolicy.
func TestDenseStateMatchesQueues(t *testing.T) {
	checks := 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed * 0xD1B54A32D192ED03)
		n := 1 + r.Intn(40)
		s := randomWorld(seed, n)
		p := newCheckedPolicy(t, s, seed)
		s.SetPolicy(p)
		for round := 0; round < 25; round++ {
			p.until += cost.Cycles(r.Intn(40_000))
			if r.Bool(0.15) {
				s.Crash(r.Intn(n))
			}
			s.Run(p.until)
		}
		checks += p.checks
	}
	if checks < 10_000 {
		t.Fatalf("only %d checked decisions", checks)
	}
}
