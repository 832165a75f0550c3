package core

// Tests for programmer-defined transactional regions (§5.5) and the
// unsupported-instruction fallback (§5.4).

import (
	"testing"

	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
)

// regionOp builds: pre blocks, an atomic region of n blocks, post blocks.
// Each region block observes the in-memory split counter so the test can
// detect a split occurring inside the region.
func regionOp(n int, splitSeen *bool) *prog.Op {
	b := prog.NewBuilder()
	lbRegion := b.Label()
	lbLoop := b.Label()
	lbPost := b.Label()

	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(0, 0)
		// Record the committed-segment count at region entry.
		f.Set(1, 0xFFFF) // sentinel: not yet recorded
		return *lbRegion
	})

	b.Bind(lbRegion)
	b.AtomicBegin()
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		// First atomic block: snapshot the split counter. Because the
		// counter is written transactionally at commit, any committed
		// split inside the region would change this value mid-region.
		f.Set(1, t.M.Peek(t.SplitsAddr()))
		return *lbLoop
	})
	b.Bind(lbLoop)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		if t.M.Peek(t.SplitsAddr()) != f.Get(1) {
			*splitSeen = true
		}
		c := f.Get(0) + 1
		f.Set(0, c)
		if int(c) >= n {
			return *lbPost
		}
		return *lbLoop
	})
	b.AtomicEnd()

	b.Bind(lbPost)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		t.SetReg(prog.RegResult, f.Get(0))
		return prog.Done
	})
	return b.Build(0, "test.Region", 2)
}

func TestAtomicRegionNeverSplit(t *testing.T) {
	// Limit 5 with a 40-block region: without region support the runtime
	// would commit ~8 times inside it.
	w := newWorld(t, 1, Config{InitialLimit: 5})
	th := w.ts[0]
	splitSeen := false
	op := regionOp(40, &splitSeen)
	r := NewRunner(w.st, nil)
	runOp(t, th, r, op)
	if th.Reg(prog.RegResult) != 40 {
		t.Fatalf("result %d, want 40", th.Reg(prog.RegResult))
	}
	if splitSeen {
		t.Fatal("a segment committed inside a programmer-defined transactional region")
	}
	// There must still be multiple segments overall (pre-region commit,
	// the region itself, the tail).
	if w.st.Stats().Segments < 2 {
		t.Fatalf("segments = %d, want >= 2 (region boundary commits)", w.st.Stats().Segments)
	}
}

func TestAtomicRegionExposesAtEnd(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 100})
	th := w.ts[0]
	b := prog.NewBuilder()
	lbIn := b.Label()
	lbPost := b.Label()
	b.Add(func(t *sched.Thread, f sched.Frame) int { return *lbIn })
	b.Bind(lbIn)
	b.AtomicBegin()
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		t.SetReg(6, 0xA70) // set inside the region
		return *lbPost
	})
	b.AtomicEnd()
	b.Bind(lbPost)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		// The region-end commit must have exposed R6 even though the
		// predictor's limit (100) was never reached.
		if t.M.Peek(t.RegsBase+6) == 0xA70 {
			t.SetReg(prog.RegResult, 1)
		}
		return prog.Done
	})
	op := b.Build(0, "test.RegionExpose", 1)
	r := NewRunner(w.st, nil)
	runOp(t, th, r, op)
	if th.Reg(prog.RegResult) != 1 {
		t.Fatal("registers not exposed at the end of the transactional region")
	}
}

func TestUnsupportedBlockRunsOutsideTx(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 50})
	th := w.ts[0]
	b := prog.NewBuilder()
	lbU := b.Label()
	lbPost := b.Label()
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(0, 7)
		return *lbU
	})
	b.Bind(lbU)
	b.AddUnsupported(func(t *sched.Thread, f sched.Frame) int {
		if t.Mode != sched.ModePlain {
			t.SetReg(prog.RegResult, 999)
		}
		// The prior segment must have committed: its frame write is
		// durable in memory.
		if t.M.Peek(f.Addr(0)) != 7 {
			t.SetReg(prog.RegResult, 998)
		}
		return *lbPost
	})
	b.Bind(lbPost)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		// Back inside a hardware transaction.
		if t.Mode != sched.ModeFast {
			t.SetReg(prog.RegResult, 997)
		}
		return prog.Done
	})
	op := b.Build(0, "test.Unsupported", 1)
	r := NewRunner(w.st, nil)
	runOp(t, th, r, op)
	switch th.Reg(prog.RegResult) {
	case 999:
		t.Fatal("unsupported block executed inside a transaction")
	case 998:
		t.Fatal("segment not committed before the unsupported block")
	case 997:
		t.Fatal("no fresh segment after the unsupported block")
	}
	if w.st.Stats().Segments < 2 {
		t.Fatal("expected a commit before the unsupported block")
	}
}

func TestUnsupportedInsideAtomicPanicsAtBuild(t *testing.T) {
	b := prog.NewBuilder()
	b.AtomicBegin()
	defer func() {
		if recover() == nil {
			t.Fatal("AddUnsupported inside an atomic region should panic")
		}
	}()
	b.AddUnsupported(func(t *sched.Thread, f sched.Frame) int { return prog.Done })
}

func TestUnclosedRegionPanicsAtBuild(t *testing.T) {
	b := prog.NewBuilder()
	b.AtomicBegin()
	b.Add(func(t *sched.Thread, f sched.Frame) int { return prog.Done })
	defer func() {
		if recover() == nil {
			t.Fatal("Build with open region should panic")
		}
	}()
	b.Build(0, "open", 0)
}

func TestUnsupportedOnSlowPath(t *testing.T) {
	// Forced slow path: unsupported blocks execute like any other (the
	// slow path is already non-transactional).
	w := newWorld(t, 1, Config{ForceSlowPct: 100})
	th := w.ts[0]
	b := prog.NewBuilder()
	lbEnd := b.Label()
	b.AddUnsupported(func(t *sched.Thread, f sched.Frame) int { return *lbEnd })
	b.Bind(lbEnd)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		t.SetReg(prog.RegResult, 5)
		return prog.Done
	})
	op := b.Build(0, "test.SlowUnsupported", 1)
	r := NewRunner(w.st, nil)
	runOp(t, th, r, op)
	if th.Reg(prog.RegResult) != 5 {
		t.Fatal("operation did not complete")
	}
}
