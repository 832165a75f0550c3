package core

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

// world is a minimal StackTrack test fixture.
type world struct {
	m  *mem.Memory
	al *alloc.Allocator
	sc *sched.Scheduler
	st *StackTrack
	ts []*sched.Thread
}

// idleStepper satisfies sched.Stepper for threads the tests drive by hand.
type idleStepper struct{}

func (idleStepper) Step(*sched.Thread) bool { return true }

func newWorld(t testing.TB, nThreads int, cfg Config) *world {
	t.Helper()
	m := mem.New(mem.Config{Words: 1 << 18})
	al := alloc.New(m)
	sc := sched.NewScheduler(m, topo.Haswell8Way(), 1)
	st := New(sc, al, cfg)
	w := &world{m: m, al: al, sc: sc, st: st}
	seed := uint64(42)
	for i := 0; i < nThreads; i++ {
		th := sched.NewThread(i, m, al, rng.Splitmix64(&seed))
		th.Scheme = st
		st.Attach(th)
		// Register with the scheduler so scans see the thread in the
		// activity array; the tests step threads directly.
		sc.AddThread(th, idleStepper{})
		w.ts = append(w.ts, th)
	}
	return w
}

// --- Predictor ---------------------------------------------------------------

func TestPredictorStreaks(t *testing.T) {
	cfg := Defaults()
	ts := &tstate{}
	if got := ts.segLimit(cfg, 0, 0); got != cfg.InitialLimit {
		t.Fatalf("initial limit %d, want %d", got, cfg.InitialLimit)
	}
	// Five consecutive aborts decrement by one.
	for i := 0; i < cfg.Streak; i++ {
		ts.onSegAbort(cfg, 0, 0)
	}
	if got := ts.segLimit(cfg, 0, 0); got != cfg.InitialLimit-1 {
		t.Fatalf("after abort streak: %d, want %d", got, cfg.InitialLimit-1)
	}
	// A commit breaks an abort streak.
	for i := 0; i < cfg.Streak-1; i++ {
		ts.onSegAbort(cfg, 0, 0)
	}
	ts.onSegCommit(cfg, 0, 0)
	for i := 0; i < cfg.Streak-1; i++ {
		ts.onSegAbort(cfg, 0, 0)
	}
	if got := ts.segLimit(cfg, 0, 0); got != cfg.InitialLimit-1 {
		t.Fatalf("broken streak still decremented: %d", got)
	}
	// Five consecutive commits increment.
	for i := 0; i < cfg.Streak; i++ {
		ts.onSegCommit(cfg, 0, 0)
	}
	if got := ts.segLimit(cfg, 0, 0); got != cfg.InitialLimit {
		t.Fatalf("after commit streak: %d, want %d", got, cfg.InitialLimit)
	}
}

func TestPredictorFloorAndCeiling(t *testing.T) {
	cfg := Config{InitialLimit: 2, MaxLimit: 3, Streak: 1}.withDefaults()
	ts := &tstate{}
	for i := 0; i < 10; i++ {
		ts.onSegAbort(cfg, 0, 0)
	}
	if got := ts.segLimit(cfg, 0, 0); got != 1 {
		t.Fatalf("floor violated: %d", got)
	}
	for i := 0; i < 10; i++ {
		ts.onSegCommit(cfg, 0, 0)
	}
	if got := ts.segLimit(cfg, 0, 0); got != cfg.MaxLimit {
		t.Fatalf("ceiling violated: %d", got)
	}
}

func TestPredictorPerSegmentIndependence(t *testing.T) {
	cfg := Defaults()
	ts := &tstate{}
	for i := 0; i < cfg.Streak; i++ {
		ts.onSegAbort(cfg, 3, 7)
	}
	if ts.segLimit(cfg, 3, 7) != cfg.InitialLimit-1 {
		t.Fatal("segment (3,7) not decremented")
	}
	if ts.segLimit(cfg, 3, 6) != cfg.InitialLimit {
		t.Fatal("unrelated segment affected")
	}
	if ts.segLimit(cfg, 2, 7) != cfg.InitialLimit {
		t.Fatal("unrelated op affected")
	}
}

// --- Runner ------------------------------------------------------------------

// loopOp builds an operation of n simple blocks, each bumping a frame slot,
// leaving the count in R0.
func loopOp(id, n int) *prog.Op {
	b := prog.NewBuilder()
	lbNext := b.Label()
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(0, 0)
		return *lbNext
	})
	b.Bind(lbNext)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		c := f.Get(0) + 1
		f.Set(0, c)
		if int(c) >= n {
			t.SetReg(prog.RegResult, c)
			return prog.Done
		}
		return *lbNext
	})
	return b.Build(id, "test.Loop", 1)
}

func runOp(t *testing.T, th *sched.Thread, r prog.Runner, op *prog.Op) {
	t.Helper()
	r.Start(th, op)
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("operation did not terminate")
		}
		if r.Step(th) {
			return
		}
	}
}

func TestRunnerSplitsLongOperation(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 10})
	th := w.ts[0]
	r := NewRunner(w.st)
	runOp(t, th, r, loopOp(0, 95))
	if th.Reg(prog.RegResult) != 95 {
		t.Fatalf("result %d, want 95", th.Reg(prog.RegResult))
	}
	st := w.st.ThreadStats(0)
	// 96 blocks at limit 10 => at least 9 committed segments.
	if st.Segments < 9 {
		t.Fatalf("segments = %d, want >= 9", st.Segments)
	}
	if st.OpsFast != 1 || st.OpsSlow != 0 {
		t.Fatalf("ops fast/slow = %d/%d", st.OpsFast, st.OpsSlow)
	}
	// The in-memory split counter reflects the committed segments
	// (reset at SPLIT_INIT, bumped per non-final commit).
	if got := w.m.Peek(th.SplitsAddr()); got == 0 {
		t.Fatal("split counter never exposed")
	}
}

func TestRunnerExposesRegistersAtSplit(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 4})
	th := w.ts[0]
	r := NewRunner(w.st)
	op := func() *prog.Op {
		b := prog.NewBuilder()
		lbNext := b.Label()
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			f.Set(0, 0)
			t.SetReg(5, 0xBEE)
			return *lbNext
		})
		b.Bind(lbNext)
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			c := f.Get(0) + 1
			f.Set(0, c)
			if c >= 20 {
				return prog.Done
			}
			return *lbNext
		})
		return b.Build(0, "test.Regs", 1)
	}()
	runOp(t, th, r, op)
	if w.m.Peek(th.RegsBase+5) != 0xBEE {
		t.Fatal("register 5 never exposed to simulated memory")
	}
}

func TestRunnerAbortRestartsSegment(t *testing.T) {
	w := newWorld(t, 2, Config{InitialLimit: 50})
	victim, attacker := w.ts[0], w.ts[1]
	shared := w.al.Static(1)
	w.al.Alloc(0, 2) // open heap so Static would now fail loudly if misused

	r := NewRunner(w.st)
	reads := 0
	op := func() *prog.Op {
		b := prog.NewBuilder()
		lbNext := b.Label()
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			f.Set(0, 0)
			return *lbNext
		})
		b.Bind(lbNext)
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			_ = t.Load(shared)
			reads++
			c := f.Get(0) + 1
			f.Set(0, c)
			if c >= 10 {
				t.SetReg(prog.RegResult, c)
				return prog.Done
			}
			return *lbNext
		})
		return b.Build(0, "test.Shared", 1)
	}()

	r.Start(victim, op)
	stepped := 0
	for !r.Step(victim) {
		stepped++
		if stepped == 3 {
			// Conflict: the attacker writes the line the victim read.
			attacker.StorePlain(shared, 1)
		}
		if stepped > 100000 {
			t.Fatal("no termination")
		}
	}
	if victim.Reg(prog.RegResult) != 10 {
		t.Fatalf("result %d, want 10 despite abort", victim.Reg(prog.RegResult))
	}
	if w.m.Stats(0).ConflictAborts == 0 {
		t.Fatal("no conflict abort recorded")
	}
	// The counter in the frame must have been rolled back and re-run:
	// more raw reads than the 10 loop iterations.
	if reads <= 10 {
		t.Fatalf("reads = %d; aborted work should have re-executed", reads)
	}
}

func TestRetireDeferredUntilCommit(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 50, MaxFree: 1000})
	th := w.ts[0]
	obj := w.al.Alloc(0, 4)
	r := NewRunner(w.st)
	op := func() *prog.Op {
		b := prog.NewBuilder()
		lbEnd := b.Label()
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			t.Retire(obj)
			// Mid-transaction: the node must not be in the free set
			// yet (the unlink has not committed).
			if len(w.st.state(t).freeSet) != 0 {
				t.SetReg(prog.RegResult, 999)
			}
			return *lbEnd
		})
		b.Bind(lbEnd)
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			return prog.Done
		})
		return b.Build(0, "test.Retire", 1)
	}()
	runOp(t, th, r, op)
	if th.Reg(prog.RegResult) == 999 {
		t.Fatal("retire entered the free set inside an uncommitted segment")
	}
	if got := w.st.PendingFrees(th); got != 1 {
		t.Fatalf("pending frees = %d, want 1", got)
	}
}

func TestRetireRolledBackOnAbort(t *testing.T) {
	w := newWorld(t, 2, Config{InitialLimit: 50, MaxFree: 1000})
	victim := w.ts[0]
	obj := w.al.Alloc(0, 4)

	r := NewRunner(w.st)
	attempts := 0
	sabotage := true
	op := func() *prog.Op {
		b := prog.NewBuilder()
		lbEnd := b.Label()
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			attempts++
			t.Retire(obj)
			if sabotage {
				// Doom the enclosing transaction after the retire:
				// the segment's commit will fail and the pending
				// retire must be rolled back with it.
				sabotage = false
				w.m.AbortTx(t.ID, mem.Conflict)
			}
			return *lbEnd
		})
		b.Bind(lbEnd)
		b.Add(func(t *sched.Thread, f sched.Frame) int { return prog.Done })
		return b.Build(0, "test.RetireAbort", 1)
	}()

	r.Start(victim, op)
	for !r.Step(victim) {
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one aborted, one committed)", attempts)
	}
	if got := w.st.PendingFrees(victim); got != 1 {
		t.Fatalf("pending frees = %d, want exactly 1 (no double retire)", got)
	}
}

// --- Scan --------------------------------------------------------------------

// fakeActive marks thread th as mid-operation with an exposed stack of n
// words.
func fakeActive(m *mem.Memory, th *sched.Thread, sp int) {
	m.Poke(th.ActivityAddr(), 1)
	m.Poke(th.SPAddr(), uint64(sp))
}

func TestScanFreesUnreferenced(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner := w.ts[0]
	obj := w.al.Alloc(0, 4)
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if w.al.IsAllocated(obj) {
		t.Fatal("unreferenced object not freed")
	}
	if w.st.PendingFrees(scanner) != 0 {
		t.Fatal("free set not emptied")
	}
}

func TestScanDefersStackReference(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	// The holder's exposed stack contains a pointer to obj.
	w.m.Poke(holder.StackBase+3, uint64(obj))
	fakeActive(w.m, holder, 8)

	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("object freed while a stack reference exists")
	}
	if w.st.PendingFrees(scanner) != 1 {
		t.Fatal("deferred pointer should stay in the free set")
	}

	// Once the holder goes idle, the next scan reclaims.
	w.m.Poke(holder.ActivityAddr(), 0)
	w.st.scanAndFreeSync(scanner)
	if w.al.IsAllocated(obj) {
		t.Fatal("object not freed after holder went idle")
	}
}

func TestScanSeesMarkedPointers(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	w.m.Poke(holder.StackBase, word.Mark(obj))
	fakeActive(w.m, holder, 4)
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("marked pointer in stack not recognized")
	}
}

func TestScanDefersRegisterReference(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	w.m.Poke(holder.RegsBase+7, uint64(obj))
	fakeActive(w.m, holder, 0)
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("object freed while a register reference exists")
	}
}

func TestScanResolvesInteriorPointers(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 16) // array-like object
	w.m.Poke(holder.StackBase, uint64(obj)+5)
	fakeActive(w.m, holder, 2)
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("interior pointer (§5.5 hidden pointer) not recognized")
	}
}

func TestScanSkipsIdleThreads(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	// Reference exists but the holder is idle (activity 0): its locals
	// are dead, so the object is reclaimable and the scan must skip the
	// thread entirely.
	w.m.Poke(holder.StackBase, uint64(obj))
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if w.al.IsAllocated(obj) {
		t.Fatal("object held by an idle thread's dead stack not freed")
	}
}

func TestScanConsistencyRestart(t *testing.T) {
	w := newWorld(t, 2, Config{ScanChunkWords: 4})
	scanner, victim := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	fakeActive(w.m, victim, 64) // a stack large enough for several chunks
	w.st.Retire(scanner, obj)

	s := w.st.startPtrScan(scanner)
	// Step until the stack phase has begun.
	for s.phase != phaseStack {
		if s.step(scanner) {
			t.Fatal("scan finished prematurely")
		}
	}
	s.step(scanner) // scan one chunk
	// The victim commits a segment mid-inspection: split counter bumps
	// while its operation counter stays put.
	w.m.Poke(victim.SplitsAddr(), w.m.Peek(victim.SplitsAddr())+1)
	for !s.step(scanner) {
	}
	if w.st.ThreadStats(0).ScanRestarts == 0 {
		t.Fatal("scan did not restart after a concurrent segment commit (Alg. 1 line 27)")
	}
	if w.al.IsAllocated(obj) {
		t.Fatal("object should be freed after consistent re-inspection")
	}
}

func TestScanSkipsRetryWhenOperationChanged(t *testing.T) {
	w := newWorld(t, 2, Config{ScanChunkWords: 4})
	scanner, victim := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	fakeActive(w.m, victim, 64)
	w.st.Retire(scanner, obj)

	s := w.st.startPtrScan(scanner)
	for s.phase != phaseStack {
		s.step(scanner)
	}
	s.step(scanner)
	// Both counters change: the operation completed, no retry needed.
	w.m.Poke(victim.SplitsAddr(), w.m.Peek(victim.SplitsAddr())+1)
	w.m.Poke(victim.OperCntAddr(), w.m.Peek(victim.OperCntAddr())+1)
	for !s.step(scanner) {
	}
	if w.st.ThreadStats(0).ScanRestarts != 0 {
		t.Fatal("scan retried although the victim's operation completed (Alg. 1 line 25)")
	}
}

// TestScanAllocsIndependentOfVictims: a scan's Go allocations are a fixed
// per-scan cost. Inspecting more victims — each resolving its operation's
// track mask — must not allocate, in either scan variant.
func TestScanAllocsIndependentOfVictims(t *testing.T) {
	mask := dataflow.TrackMask{FrameWords: 4, Frame: []bool{true, false, true, false}}
	mask.Regs[4] = true
	for _, hashed := range []bool{false, true} {
		allocs := func(victims int) float64 {
			w := newWorld(t, 8, Config{HashedScan: hashed})
			w.st.SetMasks(map[int]dataflow.TrackMask{0: mask})
			scanner := w.ts[0]
			for _, v := range w.ts[1 : victims+1] {
				fakeActive(w.m, v, 8)
			}
			// Only the last victim holds the object, in a tracked frame
			// slot, so the per-pointer walk inspects every victim and the
			// object is never freed.
			obj := w.al.Alloc(0, 4)
			w.m.Poke(w.ts[victims].StackBase+6, uint64(obj))
			w.st.Retire(scanner, obj)
			w.st.scanAndFreeSync(scanner) // hand the scratch buffers back
			n := testing.AllocsPerRun(50, func() { w.st.scanAndFreeSync(scanner) })
			if w.st.PendingFrees(scanner) != 1 || !w.al.IsAllocated(obj) {
				t.Fatalf("hashed=%v victims=%d: held object not deferred", hashed, victims)
			}
			if w.st.TotalStats().ElidedWords == 0 {
				t.Fatalf("hashed=%v victims=%d: mask never applied", hashed, victims)
			}
			return n
		}
		if one, seven := allocs(1), allocs(7); seven > one {
			t.Errorf("hashed=%v: %.0f allocs per scan with 7 victims vs %.0f with 1", hashed, seven, one)
		}
	}
}

func TestDrainFreesEverything(t *testing.T) {
	w := newWorld(t, 2, Config{})
	th := w.ts[0]
	var objs []word.Addr
	for i := 0; i < 50; i++ {
		p := w.al.Alloc(0, 4)
		objs = append(objs, p)
		w.st.Retire(th, p)
	}
	w.st.Drain(th)
	for _, p := range objs {
		if w.al.IsAllocated(p) {
			t.Fatal("Drain left allocated garbage")
		}
	}
}

// --- Slow path ----------------------------------------------------------------

func TestForcedSlowPathCompletesAndClearsRefs(t *testing.T) {
	w := newWorld(t, 1, Config{ForceSlowPct: 100})
	th := w.ts[0]
	shared := w.al.Static(8)
	r := NewRunner(w.st)
	op := func() *prog.Op {
		b := prog.NewBuilder()
		lbEnd := b.Label()
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			for i := word.Addr(0); i < 8; i++ {
				_ = t.Load(shared + i)
			}
			return *lbEnd
		})
		b.Bind(lbEnd)
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			if w.m.Peek(t.RefsLenAddr()) == 0 {
				t.SetReg(prog.RegResult, 888) // refs should be live here
			}
			return prog.Done
		})
		return b.Build(0, "test.Slow", 1)
	}()
	runOp(t, th, r, op)
	if th.Reg(prog.RegResult) == 888 {
		t.Fatal("SLOW_READ did not populate the reference set during the op")
	}
	if w.m.Peek(th.RefsLenAddr()) != 0 {
		t.Fatal("SLOW_COMMIT did not clear the reference set")
	}
	st := w.st.ThreadStats(0)
	if st.OpsSlow != 1 || st.OpsFast != 0 {
		t.Fatalf("ops fast/slow = %d/%d, want 0/1", st.OpsFast, st.OpsSlow)
	}
	if w.st.slowCount != 0 {
		t.Fatal("global slow-path counter not balanced")
	}
}

func TestScanReadsRefSetsWhenSlowActive(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	// Holder is on the slow path with obj in its reference set.
	w.st.slowCount = 1
	fakeActive(w.m, holder, 0)
	w.m.Poke(holder.RefsBase, uint64(obj))
	w.m.Poke(holder.RefsLenAddr(), 1)

	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("object freed while referenced from a slow-path reference set")
	}
	w.st.slowCount = 0
	w.m.Poke(holder.RefsLenAddr(), 0)
	w.st.scanAndFreeSync(scanner)
	if w.al.IsAllocated(obj) {
		t.Fatal("object not freed after reference set cleared")
	}
}

func TestFallbackToSlowPathOnPersistentAborts(t *testing.T) {
	w := newWorld(t, 2, Config{InitialLimit: 3, Streak: 1, SlowFailThreshold: 3, MaxFree: 1000})
	victim, attacker := w.ts[0], w.ts[1]
	shared := w.al.Static(1)

	r := NewRunner(w.st)
	done := false
	op := func() *prog.Op {
		b := prog.NewBuilder()
		lbEnd := b.Label()
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			_ = t.Load(shared)
			if t.Mode == sched.ModeFast {
				// Sabotage every hardware attempt; the predictor
				// must shrink the segment to one block and then
				// jump to the slow path.
				w.m.AbortTx(t.ID, mem.Conflict)
			}
			return *lbEnd
		})
		b.Bind(lbEnd)
		b.Add(func(t *sched.Thread, f sched.Frame) int {
			done = true
			return prog.Done
		})
		return b.Build(0, "test.Fallback", 1)
	}()

	r.Start(victim, op)
	for i := 0; !r.Step(victim); i++ {
		_ = attacker
		if i > 100000 {
			t.Fatal("runner never fell back")
		}
	}
	if !done {
		t.Fatal("operation did not complete")
	}
	if w.st.ThreadStats(0).OpsSlow != 1 {
		t.Fatal("operation should have completed on the slow path")
	}
}

func TestOpIDRandomSlowFraction(t *testing.T) {
	w := newWorld(t, 1, Config{ForceSlowPct: 50})
	th := w.ts[0]
	r := NewRunner(w.st)
	for i := 0; i < 200; i++ {
		runOp(t, th, r, loopOp(0, 3))
	}
	st := w.st.ThreadStats(0)
	if st.OpsSlow == 0 || st.OpsFast == 0 {
		t.Fatalf("50%% slow fraction produced fast=%d slow=%d", st.OpsFast, st.OpsSlow)
	}
	frac := float64(st.OpsSlow) / float64(st.OpsFast+st.OpsSlow)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("slow fraction %.2f far from 0.5", frac)
	}
}

func TestActivityLifecycle(t *testing.T) {
	w := newWorld(t, 1, Config{})
	th := w.ts[0]
	r := NewRunner(w.st)
	op := loopOp(4, 3)
	r.Start(th, op)
	if got := w.m.Peek(th.ActivityAddr()); got != 5 {
		t.Fatalf("activity = %d during op, want opID+1 = 5", got)
	}
	for !r.Step(th) {
	}
	if got := w.m.Peek(th.ActivityAddr()); got != 0 {
		t.Fatalf("activity = %d after op, want 0", got)
	}
	if got := w.m.Peek(th.OperCntAddr()); got != 2 {
		t.Fatalf("oper counter = %d, want 2 (begin+end)", got)
	}
}

func TestCostsCharged(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 5})
	th := w.ts[0]
	r := NewRunner(w.st)
	before := th.VTime()
	runOp(t, th, r, loopOp(0, 30))
	if th.VTime() <= before+30*cost.Block {
		t.Fatal("runner charged less than the raw block costs")
	}
}

func TestDrainStopsWhenNotShrinking(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	w.m.Poke(holder.StackBase, uint64(obj))
	fakeActive(w.m, holder, 4)
	w.st.Retire(scanner, obj)
	// The holder never goes idle: Drain must terminate anyway, keeping
	// the deferred pointer.
	w.st.Drain(scanner)
	if w.st.PendingFrees(scanner) != 1 {
		t.Fatal("Drain should keep the deferred pointer without looping forever")
	}
}

func TestRetireOutsideRunner(t *testing.T) {
	// Retire with no runner attached (teardown paths) goes straight to
	// the free set.
	w := newWorld(t, 1, Config{})
	th := w.ts[0]
	obj := w.al.Alloc(0, 4)
	w.st.Retire(th, obj)
	if w.st.PendingFrees(th) != 1 {
		t.Fatal("direct retire missing from free set")
	}
}

func TestUnsupportedBlockWithScanPending(t *testing.T) {
	// An unsupported block that retires past the scan threshold triggers
	// the interleaved scan from the non-transactional path.
	w := newWorld(t, 1, Config{MaxFree: 1})
	th := w.ts[0]
	objs := []word.Addr{w.al.Alloc(0, 4), w.al.Alloc(0, 4)}
	b := prog.NewBuilder()
	lbEnd := b.Label()
	b.AddUnsupported(func(tt *sched.Thread, f sched.Frame) int {
		tt.Retire(objs[0])
		tt.Retire(objs[1])
		return *lbEnd
	})
	b.Bind(lbEnd)
	b.Add(func(tt *sched.Thread, f sched.Frame) int { return prog.Done })
	op := b.Build(0, "test.UnsupRetire", 1)
	r := NewRunner(w.st)
	runOp(t, th, r, op)
	if w.al.IsAllocated(objs[0]) || w.al.IsAllocated(objs[1]) {
		t.Fatal("unsupported-path retires not reclaimed")
	}
	if w.st.ThreadStats(0).Scans == 0 {
		t.Fatal("scan never ran")
	}
}

func TestScanAtOpEndOnSlowPath(t *testing.T) {
	w := newWorld(t, 1, Config{ForceSlowPct: 100, MaxFree: 1})
	th := w.ts[0]
	objs := []word.Addr{w.al.Alloc(0, 4), w.al.Alloc(0, 4)}
	b := prog.NewBuilder()
	b.Add(func(tt *sched.Thread, f sched.Frame) int {
		tt.Retire(objs[0])
		tt.Retire(objs[1])
		return prog.Done
	})
	op := b.Build(0, "test.SlowRetire", 1)
	r := NewRunner(w.st)
	runOp(t, th, r, op)
	if w.al.IsAllocated(objs[0]) || w.al.IsAllocated(objs[1]) {
		t.Fatal("slow-path retires not reclaimed")
	}
	if w.st.ThreadStats(0).OpsSlow != 1 {
		t.Fatal("op should have run slow")
	}
}

func TestProtectIsNoOpForStackTrack(t *testing.T) {
	w := newWorld(t, 1, Config{})
	w.st.Protect(w.ts[0], 3, 0x40) // must not panic or allocate state
}

func TestRunnerBusyStates(t *testing.T) {
	w := newWorld(t, 1, Config{})
	r := NewRunner(w.st)
	if r.Busy() {
		t.Fatal("fresh runner busy")
	}
	r.Start(w.ts[0], loopOp(0, 2))
	if !r.Busy() {
		t.Fatal("started runner not busy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Start should panic")
		}
	}()
	r.Start(w.ts[0], loopOp(0, 2))
}
