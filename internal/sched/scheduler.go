package sched

import (
	"fmt"
	"math/bits"

	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/metrics"
	"stacktrack/internal/rng"
	"stacktrack/internal/topo"
)

// Stepper advances a thread by one basic block (or one scan chunk, or one
// blocked-wait poll). It returns true when the thread's workload is
// complete. The engine installs one per thread.
type Stepper interface {
	Step(t *Thread) bool
}

// MaxContexts is the largest topology (in hardware contexts) a Scheduler
// supports: the ready structure keeps its per-context bits in 64-bit masks.
const MaxContexts = 64

// blockedPollCost is the virtual cost of one poll of a blocked thread's
// wake condition (a spin-wait iteration with a pause instruction).
const blockedPollCost cost.Cycles = 400

// notReady is the occupant clock recorded for a context that cannot step:
// it loses every minimum-clock comparison, so the pick scans a contiguous
// run of the clock array without testing each context's ready bit.
const notReady = ^cost.Cycles(0)

// Policy decides scheduling: which runnable context steps next, and whether
// the occupant of an oversubscribed context is preempted before it steps.
// The zero policy (nil) is the built-in virtual-time rule: minimum occupant
// vtime wins, preemption on OS-timeslice expiry. internal/explore supplies
// alternative strategies (random walk, PCT) plus record/replay wrappers.
//
// A policy is consulted at exactly two kinds of decision point:
//
//   - Pick: once per scheduler loop iteration, over the current list of
//     runnable context ids (ascending). It returns an index into cands.
//   - Preempt: immediately after Pick, only when the chosen context
//     multiplexes more than one thread. Returning true rotates the
//     occupant out (aborting its transaction) before anything steps.
//
// Policies must be deterministic functions of their own state; everything
// they can observe through the Scheduler accessors is part of the
// deterministic simulation.
type Policy interface {
	Pick(s *Scheduler, cands []int) int
	Preempt(s *Scheduler, ctx int) bool
}

// Scheduler interleaves simulated threads in virtual-time order. It is the
// single driver of all simulated execution; nothing in the simulation runs
// on more than one host goroutine.
//
// Each hardware context (a hyperthread slot) has a run queue of the
// software threads pinned to it; queue[0] is the current occupant. Under
// oversubscription the scheduler rotates the queue with an OS-like
// timeslice, aborting the outgoing thread's transaction — the paper's
// "timer interrupt clears the cache". The queue owns the order; everything
// a decision reads about a context lives in dense arrays indexed by
// context id, which are the single source of truth for that state: the
// occupant, its clock while the context is ready, the context's timeline
// and timeslice start, and how many sibling contexts host a live thread.
type Scheduler struct {
	M    *mem.Memory
	Topo topo.Topology

	threads  []*Thread
	steppers []Stepper
	queues   [][]*Thread // per-context run queue, occupant first
	siblings [][]int     // per-context list of same-core context ids

	jitter *rng.Rand
	policy Policy
	cands  []int // ready context ids, ascending: the bits of readyMask

	// Per-context decision state. occ[c] is queue[0] (nil when empty);
	// clock[c] is the context's timeline and sliceStart[c] the occupant's
	// switch-in time; sibLive[c] counts the other contexts of c's core
	// whose occupant is live (liveMask holds each context's own bit).
	occ        []*Thread
	clock      []cost.Cycles
	sliceStart []cost.Cycles
	sibLive    []int32
	liveMask   uint64

	// Incrementally maintained ready set. A context's runnability only
	// changes when its occupant's virtual clock or its queue changes
	// (step, blocked poll, rotate, retire, crash, AddThread) or when the
	// horizon moves (once per Run call) — so instead of rescanning every
	// context per decision, mutation sites mark their context dirty and
	// only dirty contexts are re-evaluated, in ascending id order, before
	// the next pick. Re-evaluating a clean context would be a pure no-op,
	// so the side-effect sequence (horizon rotations, retirements) is the
	// one a full per-decision rescan produces; the sched tests keep that
	// rescan as a reference model. occVT[c] is the occupant's clock while
	// bit c of readyMask is set and notReady otherwise, so the pick is a
	// flat minimum over occVT.
	dirtyMask uint64
	readyMask uint64
	occVT     []cost.Cycles

	// Decision counter and one-shot pause points (checkpoint support).
	// decisions counts scheduling decisions — one per Run loop iteration
	// that reaches a pick — and aligns with the decision numbers of
	// internal/explore's schedule logs.
	decisions  uint64
	pauseDecOn bool
	pauseDec   uint64
	pauseVTOn  bool
	pauseVT    cost.Cycles
	pausedFlag bool

	ctrPreempts *metrics.Counter
	ctrSwitches *metrics.Counter
	ctrPolls    *metrics.Counter
	ctrCrashes  *metrics.Counter

	obs Observer
}

// NewScheduler creates a scheduler over m with the given topology and
// registers itself as the memory's cache-pressure source. It panics if the
// topology has more than MaxContexts hardware contexts, since no
// simulation can run on it.
func NewScheduler(m *mem.Memory, tp topo.Topology, seed uint64) *Scheduler {
	n := tp.Contexts()
	if n > MaxContexts {
		panic(fmt.Sprintf("sched: topology has %d hardware contexts, at most %d supported", n, MaxContexts))
	}
	reg := m.Metrics()
	s := &Scheduler{
		M: m, Topo: tp, jitter: rng.New(seed),
		ctrPreempts: reg.Counter("sched.preemptions"),
		ctrSwitches: reg.Counter("sched.context_switches"),
		ctrPolls:    reg.Counter("sched.blocked_polls"),
		ctrCrashes:  reg.Counter("sched.crashes"),
	}
	s.queues = make([][]*Thread, n)
	s.siblings = make([][]int, n)
	s.cands = make([]int, 0, n)
	s.occ = make([]*Thread, n)
	s.clock = make([]cost.Cycles, n)
	s.sliceStart = make([]cost.Cycles, n)
	s.sibLive = make([]int32, n)
	s.occVT = make([]cost.Cycles, n)
	for i := 0; i < n; i++ {
		s.occVT[i] = notReady
		for j := 0; j < n; j++ {
			if i != j && tp.CoreOf(i) == tp.CoreOf(j) {
				s.siblings[i] = append(s.siblings[i], j)
			}
		}
	}
	m.SetPressure(s)
	return s
}

// AddThread registers a thread and its stepper, pinning the thread to a
// hardware context round-robin.
func (s *Scheduler) AddThread(t *Thread, st Stepper) {
	if t.ID != len(s.threads) {
		panic(fmt.Sprintf("sched: thread ids must be dense, got %d want %d", t.ID, len(s.threads)))
	}
	t.hw = s.Topo.HWContextOf(t.ID)
	s.threads = append(s.threads, t)
	s.steppers = append(s.steppers, st)
	id := t.hw
	s.queues[id] = append(s.queues[id], t)
	t.running = len(s.queues[id]) == 1
	s.occ[id] = s.queues[id][0]
	s.setLive(id, !s.occ[id].done)
	s.markDirty(id)
}

func (s *Scheduler) markDirty(id int) { s.dirtyMask |= 1 << uint(id) }

// setLive records whether context id hosts a live occupant, keeping its
// siblings' live-sibling counts in step.
func (s *Scheduler) setLive(id int, live bool) {
	bit := uint64(1) << uint(id)
	if (s.liveMask&bit != 0) == live {
		return
	}
	s.liveMask ^= bit
	d := int32(-1)
	if live {
		d = 1
	}
	for _, j := range s.siblings[id] {
		s.sibLive[j] += d
	}
}

// refreshContext re-evaluates one context's runnability (with runnable's
// usual side effects: retiring finished occupants, rotating past
// out-of-horizon ones) and records the result in readyMask and occVT.
func (s *Scheduler) refreshContext(id int, until cost.Cycles) {
	if s.runnable(id, until) {
		s.readyMask |= 1 << uint(id)
		s.occVT[id] = s.occ[id].vtime
	} else {
		s.readyMask &^= 1 << uint(id)
		s.occVT[id] = notReady
	}
}

// rebuildCands lists the ready context ids in ascending order.
func (s *Scheduler) rebuildCands() {
	s.cands = s.cands[:0]
	for m := s.readyMask; m != 0; m &= m - 1 {
		s.cands = append(s.cands, bits.TrailingZeros64(m))
	}
}

// Threads returns the registered threads (the scanner's activity array).
func (s *Scheduler) Threads() []*Thread { return s.threads }

// SetPolicy installs a scheduling policy; nil restores the built-in
// virtual-time rule. Install before Run — switching mid-run is legal but
// changes the interleaving from that point on.
func (s *Scheduler) SetPolicy(p Policy) { s.policy = p }

// --- Policy observation accessors -----------------------------------------

// QueueLen returns how many threads are queued on context ctx (the occupant
// included).
func (s *Scheduler) QueueLen(ctx int) int { return len(s.queues[ctx]) }

// QueueThreadID returns the id of the thread at queue position pos of
// context ctx (position 0 is the occupant), or -1 if out of range.
func (s *Scheduler) QueueThreadID(ctx, pos int) int {
	q := s.queues[ctx]
	if pos < 0 || pos >= len(q) {
		return -1
	}
	return q[pos].ID
}

// OccupantID returns the thread id currently occupying context ctx, or -1
// if its queue is empty.
func (s *Scheduler) OccupantID(ctx int) int {
	if t := s.occ[ctx]; t != nil {
		return t.ID
	}
	return -1
}

// DefaultPick is the built-in virtual-time rule: the candidate whose
// occupant has the minimum virtual clock, ties broken by context id (cands
// is ascending, so the first minimum wins). It reads the ready set Run
// maintains rather than cands itself, so cands must be the slice Run
// passed to the Policy's Pick. With no context ready it returns 0.
func (s *Scheduler) DefaultPick(cands []int) int {
	if s.readyMask == 0 {
		return 0
	}
	return bits.OnesCount64(s.readyMask & (1<<uint(s.pick()) - 1))
}

// pick returns the id of the ready context whose occupant has the minimum
// clock, the lowest id among equal clocks. At least one context is ready.
func (s *Scheduler) pick() int {
	lo := bits.TrailingZeros64(s.readyMask)
	vs := s.occVT[lo:bits.Len64(s.readyMask)]
	best, bv := 0, vs[0]
	for i, v := range vs {
		if v < bv {
			best, bv = i, v
		}
	}
	return lo + best
}

// DefaultPreempt is the built-in OS rule: rotate when the occupant has
// exhausted its timeslice quantum.
func (s *Scheduler) DefaultPreempt(ctx int) bool {
	return s.occ[ctx].vtime-s.sliceStart[ctx] >= cost.TimesliceQuantum
}

// SiblingActive implements mem.Pressure: whether a sibling hyperthread of
// tid's core currently hosts a live thread. Threads not registered with the
// scheduler have no siblings.
func (s *Scheduler) SiblingActive(tid int) bool {
	if tid >= len(s.threads) {
		return false
	}
	return s.siblingLive(s.threads[tid].hw)
}

// siblingLive is SiblingActive keyed by hardware context (the form the
// run loop uses: it already holds the context id).
func (s *Scheduler) siblingLive(hw int) bool { return s.sibLive[hw] > 0 }

// Crash kills thread tid where it stands: it is never scheduled again, its
// in-flight transaction dies with it (the hardware discards an interrupted
// transaction), but its simulated stack, registers, and activity word keep
// whatever values they had — exactly what the memory-reclamation schemes
// must now cope with. Epoch-style schemes wait on it forever; scan- and
// pointer-based schemes merely treat its last exposed references as live.
func (s *Scheduler) Crash(tid int) {
	if tid >= len(s.threads) {
		return
	}
	t := s.threads[tid]
	if t.done || t.crashed {
		return
	}
	s.M.AbortTx(tid, mem.Preempt)
	t.crashed = true
	s.ctrCrashes.Inc(tid)
	if s.obs != nil {
		s.obs.ThreadCrash(tid)
	}
	id := t.hw
	for i, q := range s.queues[id] {
		if q == t {
			s.queues[id] = append(s.queues[id][:i], s.queues[id][i+1:]...)
			if i == 0 {
				s.switchIn(id)
			}
			break
		}
	}
	s.markDirty(id)
}

// Decisions returns how many scheduling decisions the run has made so
// far. The count aligns with internal/explore's schedule-log decision
// numbers: decision N is the (N+1)-th pick of the run.
func (s *Scheduler) Decisions() uint64 { return s.decisions }

// PauseAtDecision arms a one-shot pause: Run returns just before making
// decision n (so exactly n decisions have been made), at a block boundary
// where no thread is mid-access. Taking a snapshot there and resuming —
// or restoring and resuming elsewhere — is bit-exact, because nothing is
// consumed between the pause check and the pick.
func (s *Scheduler) PauseAtDecision(n uint64) { s.pauseDecOn, s.pauseDec = true, n }

// PauseAtVTime arms a one-shot pause at the first decision boundary where
// every runnable thread's virtual clock has reached v ("the first safe
// boundary at or after v").
func (s *Scheduler) PauseAtVTime(v cost.Cycles) { s.pauseVTOn, s.pauseVT = true, v }

// ClearPause disarms any armed pause point.
func (s *Scheduler) ClearPause() { s.pauseDecOn, s.pauseVTOn = false, false }

// Paused reports whether the last Run call returned because an armed
// pause point fired (rather than reaching the horizon). The pause is
// one-shot: calling Run again continues past it.
func (s *Scheduler) Paused() bool { return s.pausedFlag }

// Run steps threads until every live thread's virtual clock reaches the
// `until` cycle count or all steppers report completion. It may be called
// repeatedly with increasing horizons (warmup, then measurement).
func (s *Scheduler) Run(until cost.Cycles) {
	s.pausedFlag = false
	// The horizon moved (and anything may have mutated between Run calls):
	// rebuild the ready set with a full ascending scan.
	for i := range s.queues {
		s.refreshContext(i, until)
	}
	s.dirtyMask = 0
	s.rebuildCands()
	for {
		if m := s.dirtyMask; m != 0 {
			// Re-evaluate only the contexts touched since the last
			// decision, in ascending id order — the same order (and
			// therefore the same rotate/retire side-effect sequence) a
			// full rescan produces, because clean contexts contribute no
			// side effects.
			ready := s.readyMask
			for m != 0 {
				id := bits.TrailingZeros64(m)
				m &^= 1 << uint(id)
				s.refreshContext(id, until)
			}
			s.dirtyMask = 0
			if s.readyMask != ready {
				s.rebuildCands()
			}
		}
		if s.readyMask == 0 {
			return
		}
		if s.pauseDecOn && s.decisions >= s.pauseDec {
			s.pauseDecOn = false
			s.pausedFlag = true
			return
		}
		if s.pauseVTOn && s.occVT[s.pick()] >= s.pauseVT {
			s.pauseVTOn = false
			s.pausedFlag = true
			return
		}
		s.decisions++
		var id int
		if s.policy != nil {
			cands := s.cands
			i := s.policy.Pick(s, cands)
			if i < 0 || i >= len(cands) {
				i = s.DefaultPick(cands)
			}
			id = cands[i]
		} else {
			id = s.pick()
		}
		t := s.occ[id]

		// OS timeslice expiry (or a policy-forced context switch): switch
		// in the next waiter.
		if len(s.queues[id]) > 1 {
			var pre bool
			if s.policy != nil {
				pre = s.policy.Preempt(s, id)
			} else {
				pre = s.DefaultPreempt(id)
			}
			if pre {
				s.rotate(id)
				continue
			}
		}

		if t.Blocked != nil {
			if t.Blocked() {
				t.Blocked = nil
				t.pollBackoff = 0
			} else {
				// Spin-wait with exponential backoff (pause loop
				// escalating toward a yield), so a wait that never
				// completes — e.g. on a crashed thread — does not
				// dominate the simulation.
				c := blockedPollCost << t.pollBackoff
				if t.pollBackoff < 12 {
					t.pollBackoff++
				}
				t.Charge(c)
				s.ctrPolls.Inc(t.ID)
				if t.Prof != nil {
					t.Prof.AddPhase(metrics.PhaseBlocked, uint64(c))
				}
				s.advanced(id, t, until)
				continue
			}
		}

		before := t.vtime
		if s.steppers[t.ID].Step(t) {
			t.done = true
			s.retireFromContext(id)
			continue
		}
		// One sibling-activity lookup feeds both the HT-slowdown charge and
		// the probabilistic eviction below.
		sib := s.siblingLive(id)
		if sib && s.Topo.HTSlowdown > 0 {
			// Shared execution units: the step takes longer while the
			// sibling hyperthread is busy.
			extra := cost.Cycles(float64(t.vtime-before) * s.Topo.HTSlowdown)
			t.Charge(extra)
			if t.Prof != nil {
				t.Prof.AddPhase(metrics.PhaseHTSlow, uint64(extra))
			}
		}
		if sib {
			s.maybeSiblingEvict(t)
		}
		s.advanced(id, t, until)
	}
}

// advanced records that t, picked on context id, moved its clock without
// finishing. While t is still the occupant, not done (SetDone inside a
// step) and below the horizon, re-evaluating the context would have no
// side effects and find it ready, so its ready-set clock is updated in
// place; otherwise the context is re-evaluated before the next pick.
func (s *Scheduler) advanced(id int, t *Thread, until cost.Cycles) {
	s.clock[id] = t.vtime
	if s.occ[id] == t && !t.done && t.vtime < until {
		s.occVT[id] = t.vtime
	} else {
		s.markDirty(id)
	}
}

// runnable reports whether context id has an occupant that can step before
// the horizon, rotating past finished or out-of-horizon occupants so
// waiters behind them still get CPU.
func (s *Scheduler) runnable(id int, until cost.Cycles) bool {
	for t := s.occ[id]; t != nil; t = s.occ[id] {
		if t.done {
			s.retireFromContext(id)
			continue
		}
		if t.vtime >= until {
			// Horizon reached for the occupant; let a waiter run if
			// one still has budget.
			if s.anyWaiterBelow(id, until) {
				s.rotate(id)
				continue
			}
			return false
		}
		return true
	}
	return false
}

func (s *Scheduler) anyWaiterBelow(id int, until cost.Cycles) bool {
	for _, w := range s.queues[id][1:] {
		if !w.done && w.vtime < until {
			return true
		}
	}
	return false
}

// rotate performs a context switch: the occupant's transaction aborts (the
// timer interrupt cleared the cache), it pays the switch cost and moves to
// the back; the next thread switches in, its clock catching up to the
// context's timeline — modelling the time it spent descheduled.
func (s *Scheduler) rotate(id int) {
	q := s.queues[id]
	out := q[0]
	s.M.AbortTx(out.ID, mem.Preempt)
	out.Trace(TracePreempt, 0)
	out.Charge(cost.ContextSwitch)
	s.ctrPreempts.Inc(out.ID)
	if out.Prof != nil {
		out.Prof.AddPhase(metrics.PhasePreempt, uint64(cost.ContextSwitch))
	}
	out.running = false
	s.clock[id] = maxCycles(s.clock[id], out.vtime)
	copy(q, q[1:])
	q[len(q)-1] = out
	s.switchIn(id)
	if s.obs != nil {
		s.obs.ThreadHandoff(out.ID, s.OccupantID(id))
	}
}

// retireFromContext removes a finished occupant and switches in the next.
func (s *Scheduler) retireFromContext(id int) {
	out := s.queues[id][0]
	out.running = false
	s.clock[id] = maxCycles(s.clock[id], out.vtime)
	s.queues[id] = s.queues[id][1:]
	s.switchIn(id)
	if s.obs != nil {
		s.obs.ThreadHandoff(out.ID, s.OccupantID(id))
	}
}

// switchIn makes queue[0] the occupant of context id after the queue lost
// or rotated its previous occupant.
func (s *Scheduler) switchIn(id int) {
	s.markDirty(id)
	if len(s.queues[id]) == 0 {
		s.occ[id] = nil
		s.setLive(id, false)
		return
	}
	in := s.queues[id][0]
	s.occ[id] = in
	s.setLive(id, !in.done)
	was := in.vtime
	in.vtime = maxCycles(in.vtime, s.clock[id]) + cost.ContextSwitch
	s.ctrSwitches.Inc(in.ID)
	if in.Prof != nil {
		// The jump covers descheduled time plus the switch-in cost.
		in.Prof.AddPhase(metrics.PhasePreempt, uint64(in.vtime-was))
	}
	in.running = true
	s.sliceStart[id] = in.vtime
	s.clock[id] = in.vtime
}

// maybeSiblingEvict applies the probabilistic capacity-eviction term: when
// the sibling hyperthread is active, a transaction loses a tracked line
// with probability proportional to its footprint (shared L1 pressure).
// The caller has already established that the sibling is active; the
// random draw happens iff a transaction is live, exactly as before.
func (s *Scheduler) maybeSiblingEvict(t *Thread) {
	tx := t.Tx
	if tx == nil || !tx.Active() {
		return
	}
	p := s.Topo.SiblingEvictRate * float64(tx.Footprint()) / float64(s.Topo.L1Lines)
	if t.Rng.Bool(p) {
		s.M.Evict(tx)
	}
}

func maxCycles(a, b cost.Cycles) cost.Cycles {
	if a > b {
		return a
	}
	return b
}
