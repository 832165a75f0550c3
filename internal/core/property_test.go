package core

import (
	"testing"
	"testing/quick"

	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
)

// TestRunnerSurvivesRandomDoomProperty: whatever pattern of transaction
// dooms (conflict, capacity, preempt) is injected between steps, every
// operation must finish with the right result and the predictor tables must
// stay within bounds.
func TestRunnerSurvivesRandomDoomProperty(t *testing.T) {
	run := func(seed uint64) bool {
		w := newWorld(t, 1, Config{InitialLimit: 8, Streak: 2, SlowFailThreshold: 3})
		th := w.ts[0]
		r := NewRunner(w.st, nil)
		rnd := rng.New(seed)
		reasons := []mem.AbortReason{mem.Conflict, mem.Capacity, mem.Preempt}

		for op := 0; op < 20; op++ {
			n := 1 + rnd.Intn(40)
			lop := loopOp(rnd.Intn(3), n)
			r.Start(th, lop)
			for i := 0; ; i++ {
				if i > 1_000_000 {
					t.Log("operation did not terminate")
					return false
				}
				if rnd.Intn(4) == 0 {
					w.m.AbortTx(th.ID, reasons[rnd.Intn(len(reasons))])
				}
				if r.Step(th) {
					break
				}
			}
			if int(th.Reg(prog.RegResult)) != n {
				t.Logf("op result %d, want %d", th.Reg(prog.RegResult), n)
				return false
			}
		}
		// Predictor invariants: every limit within [1, MaxLimit].
		ts := w.st.state(th)
		for _, row := range ts.limits {
			for _, l := range row {
				if l < 1 || int(l) > w.st.cfg.MaxLimit {
					t.Logf("limit %d out of bounds", l)
					return false
				}
			}
		}
		// Histogram total matches committed segments.
		var hist uint64
		for _, n := range w.st.Stats().SegLenHist {
			hist += n
		}
		if hist != w.st.Stats().Segments {
			t.Log("histogram diverged from segment count")
			return false
		}
		return w.st.slowCount == 0 // balanced even if ops fell back
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestScanFalsePositive: a stack word that merely *looks like* a pointer
// (a data value equal to a heap address) defers the free — the conservative
// behaviour the paper shares with conservative GC (§5.2: "the scan may
// result in false positives ... this does not effect correctness").
func TestScanFalsePositive(t *testing.T) {
	w := newWorld(t, 2, Config{})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	// The holder stores the object's address as an integer VALUE (not a
	// reference it will ever dereference).
	w.m.Poke(holder.StackBase+1, uint64(obj))
	fakeActive(w.m, holder, 4)

	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("false positive should conservatively defer the free")
	}
	if w.st.Stats().FalseHeld == 0 {
		t.Fatal("deferred free not counted")
	}
	// The value disappears; the free proceeds on the next scan.
	w.m.Poke(holder.StackBase+1, 12345)
	w.st.scanAndFreeSync(scanner)
	if w.al.IsAllocated(obj) {
		t.Fatal("free still deferred after the value vanished")
	}
}

// TestOpIDsIndependentPredictors: operations with different ids keep
// independent limit tables even when interleaved on one thread.
func TestOpIDsIndependentPredictors(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 10, Streak: 1})
	th := w.ts[0]
	r := NewRunner(w.st, nil)

	// Run op 0 with constant sabotage so its limits shrink.
	sabotage := true
	b := prog.NewBuilder()
	lbEnd := b.Label()
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		if sabotage && t.Mode == sched.ModeFast {
			w.m.AbortTx(t.ID, mem.Capacity)
		}
		return *lbEnd
	})
	b.Bind(lbEnd)
	b.Add(func(t *sched.Thread, f sched.Frame) int { return prog.Done })
	hostile := b.Build(0, "test.Hostile", 1)

	for i := 0; i < 3; i++ {
		runOp(t, th, r, hostile)
	}
	sabotage = false
	runOp(t, th, r, loopOp(1, 20)) // benign op with a different id

	ts := w.st.state(th)
	if ts.segLimit(w.st.cfg, 0, 0) >= 10 {
		t.Fatal("hostile op's limit did not shrink")
	}
	// The benign op's limit may have grown (commit streaks at Streak=1)
	// but must never have inherited the hostile op's decrements.
	if ts.segLimit(w.st.cfg, 1, 0) < 10 {
		t.Fatal("benign op's limit was shrunk by the hostile op")
	}
}
