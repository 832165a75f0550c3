package reclaim

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

type idleStepper struct{}

func (idleStepper) Step(*sched.Thread) bool { return true }

type world struct {
	m  *mem.Memory
	al *alloc.Allocator
	sc *sched.Scheduler
	ts []*sched.Thread
}

func newWorld(t *testing.T, n int) *world {
	t.Helper()
	m := mem.New(mem.Config{Words: 1 << 18})
	al := alloc.New(m)
	sc := sched.NewScheduler(m, topo.Haswell8Way(), 1)
	w := &world{m: m, al: al, sc: sc}
	for i := 0; i < n; i++ {
		th := sched.NewThread(i, m, al, uint64(i)+9)
		sc.AddThread(th, idleStepper{})
		w.ts = append(w.ts, th)
	}
	return w
}

func attach(w *world, s sched.Reclaimer) {
	for _, th := range w.ts {
		th.Scheme = s
		s.Attach(th)
	}
}

func TestNewSchemeNames(t *testing.T) {
	w := newWorld(t, 2)
	for _, name := range []string{"Original", "Epoch", "Hazards", "DTA"} {
		s, err := NewScheme(name, w.sc, w.al)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewScheme("bogus", w.sc, w.al); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestLeakNeverFrees(t *testing.T) {
	w := newWorld(t, 1)
	l := NewLeak()
	attach(w, l)
	p := w.al.Alloc(0, 4)
	l.Retire(w.ts[0], p)
	l.Drain(w.ts[0])
	if !w.al.IsAllocated(p) {
		t.Fatal("leak scheme freed a node")
	}
	if l.Leaked != 1 {
		t.Fatalf("Leaked = %d, want 1", l.Leaked)
	}
}

// --- Epoch -------------------------------------------------------------------

func TestEpochFreesWhenAllQuiescent(t *testing.T) {
	w := newWorld(t, 2)
	e := NewEpoch(w.sc, 1)
	attach(w, e)
	t0 := w.ts[0]
	p := w.al.Alloc(0, 4)
	e.BeginOp(t0, 0)
	e.Retire(t0, p)
	e.EndOp(t0) // other thread is quiescent: wait trivially satisfied
	if t0.Blocked != nil {
		if !t0.Blocked() {
			t.Fatal("wait should be satisfied with all threads quiescent")
		}
		t0.Blocked = nil
	}
	if w.al.IsAllocated(p) {
		t.Fatal("node not freed")
	}
}

func TestEpochWaitsForBusyThread(t *testing.T) {
	w := newWorld(t, 2)
	e := NewEpoch(w.sc, 1)
	attach(w, e)
	t0, t1 := w.ts[0], w.ts[1]
	p := w.al.Alloc(0, 4)

	e.BeginOp(t1, 0) // t1 is mid-operation
	e.BeginOp(t0, 0)
	e.Retire(t0, p)
	e.EndOp(t0)
	if t0.Blocked == nil {
		t.Fatal("reclaimer should block on the busy thread")
	}
	if t0.Blocked() {
		t.Fatal("wait satisfied while t1 is still mid-op")
	}
	if w.al.IsAllocated(p) != true {
		t.Fatal("node freed too early")
	}
	e.EndOp(t1)
	if !t0.Blocked() {
		t.Fatal("wait not satisfied after t1 progressed")
	}
	if w.al.IsAllocated(p) {
		t.Fatal("node not freed after wake-up")
	}
}

func TestEpochConcurrentReclaimersNoDeadlock(t *testing.T) {
	w := newWorld(t, 2)
	e := NewEpoch(w.sc, 1)
	attach(w, e)
	t0, t1 := w.ts[0], w.ts[1]
	p0 := w.al.Alloc(0, 4)
	p1 := w.al.Alloc(0, 4)

	// Both threads retire inside overlapping operations; both waits start
	// after their own EndOp ticks, so each sees the other as quiescent.
	e.BeginOp(t0, 0)
	e.BeginOp(t1, 0)
	e.Retire(t0, p0)
	e.Retire(t1, p1)
	e.EndOp(t0)
	e.EndOp(t1)
	for _, th := range w.ts {
		if th.Blocked != nil && !th.Blocked() {
			t.Fatal("deadlock: reclaimers wait on each other")
		}
		th.Blocked = nil
	}
	if w.al.IsAllocated(p0) || w.al.IsAllocated(p1) {
		t.Fatal("nodes not freed")
	}
}

func TestEpochDrain(t *testing.T) {
	w := newWorld(t, 2)
	e := NewEpoch(w.sc, 100) // large limit: nothing freed inline
	attach(w, e)
	t0 := w.ts[0]
	p := w.al.Alloc(0, 4)
	e.BeginOp(t0, 0)
	e.Retire(t0, p)
	e.EndOp(t0)
	if !w.al.IsAllocated(p) {
		t.Fatal("freed below the batch limit")
	}
	e.Drain(t0)
	if w.al.IsAllocated(p) {
		t.Fatal("Drain did not flush")
	}
	if e.Pending(0) != 0 {
		t.Fatal("pending count wrong")
	}
}

// --- Hazard pointers -----------------------------------------------------------

func TestHazardProtectPublishes(t *testing.T) {
	w := newWorld(t, 2)
	h := NewHazard(w.sc, w.al, 4, 8)
	attach(w, h)
	t0 := w.ts[0]
	src := w.al.Static(1)
	node := w.al.Alloc(0, 4)
	w.m.Poke(src, uint64(node))

	got := h.ProtectLoad(t0, 1, src)
	if word.Addr(got) != node {
		t.Fatalf("ProtectLoad returned %#x, want %#x", got, uint64(node))
	}
	if w.m.Peek(h.base[0]+1) != uint64(node) {
		t.Fatal("hazard slot not published in simulated memory")
	}
}

func TestHazardPreservesMarkBit(t *testing.T) {
	w := newWorld(t, 1)
	h := NewHazard(w.sc, w.al, 4, 8)
	attach(w, h)
	src := w.al.Static(1)
	node := w.al.Alloc(0, 4)
	w.m.Poke(src, word.Mark(node))
	got := h.ProtectLoad(w.ts[0], 0, src)
	if !word.IsMarked(got) || word.Ptr(got) != node {
		t.Fatal("mark bit lost through ProtectLoad")
	}
	if w.m.Peek(h.base[0]) != uint64(node) {
		t.Fatal("published hazard should be the unmarked node address")
	}
}

func TestHazardScanSparesProtectedNodes(t *testing.T) {
	w := newWorld(t, 2)
	h := NewHazard(w.sc, w.al, 4, 4)
	attach(w, h)
	t0, t1 := w.ts[0], w.ts[1]

	src := w.al.Static(1)
	protected := w.al.Alloc(0, 4)
	w.m.Poke(src, uint64(protected))
	h.ProtectLoad(t1, 0, src) // t1 holds a hazard on `protected`

	var victims []word.Addr
	for i := 0; i < 3; i++ {
		victims = append(victims, w.al.Alloc(0, 4))
	}
	h.Retire(t0, protected)
	for _, v := range victims {
		h.Retire(t0, v) // the 4th retire triggers a scan
	}
	if !w.al.IsAllocated(protected) {
		t.Fatal("hazard-protected node was freed")
	}
	for _, v := range victims {
		if w.al.IsAllocated(v) {
			t.Fatal("unprotected node survived the scan")
		}
	}
	// Clearing the hazard at op end releases the node on the next scan.
	h.EndOp(t1)
	h.Drain(t0)
	if w.al.IsAllocated(protected) {
		t.Fatal("node not freed after hazard cleared")
	}
}

func TestHazardSlotRangePanics(t *testing.T) {
	w := newWorld(t, 1)
	h := NewHazard(w.sc, w.al, 2, 4)
	attach(w, h)
	src := w.al.Static(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range hazard slot should panic")
		}
	}()
	h.ProtectLoad(w.ts[0], 2, src)
}

// --- DTA --------------------------------------------------------------------

func TestDTAFreesNodesRetiredBeforeCurrentOps(t *testing.T) {
	w := newWorld(t, 2)
	d := NewDTA(w.sc, w.al, 4, 2)
	attach(w, d)
	t0, t1 := w.ts[0], w.ts[1]

	p0 := w.al.Alloc(0, 4)
	p1 := w.al.Alloc(0, 4)
	d.BeginOp(t0, 0)
	d.Retire(t0, p0)
	// t1 starts its operation after p0 was retired: it can't hold it.
	d.BeginOp(t1, 0)
	d.Retire(t0, p1) // second retire hits the limit -> sweep
	if w.al.IsAllocated(p0) {
		t.Fatal("node retired before t1's op should be freed")
	}
	if !w.al.IsAllocated(p1) {
		t.Fatal("node retired during t1's op must be kept")
	}
	d.EndOp(t0)
	d.EndOp(t1)
	d.Drain(t0)
	if w.al.IsAllocated(p1) {
		t.Fatal("node not freed after all ops completed")
	}
}

func TestDTANonBlocking(t *testing.T) {
	w := newWorld(t, 2)
	d := NewDTA(w.sc, w.al, 4, 1)
	attach(w, d)
	t0, t1 := w.ts[0], w.ts[1]
	d.BeginOp(t1, 0) // t1 stalls mid-op forever
	d.BeginOp(t0, 0)
	p := w.al.Alloc(0, 4)
	d.Retire(t0, p)
	// The sweep must not block; the node simply stays buffered.
	if t0.Blocked != nil {
		t.Fatal("DTA must never block")
	}
	if w.al.IsAllocated(p) != true {
		t.Fatal("node retired during t1's op freed despite the stall")
	}
}

func TestDTAAnchorEveryKHops(t *testing.T) {
	w := newWorld(t, 1)
	hops := 5
	d := NewDTA(w.sc, w.al, hops, 64)
	attach(w, d)
	t0 := w.ts[0]
	src := w.al.Static(1)
	node := w.al.Alloc(0, 4)
	w.m.Poke(src, uint64(node))

	d.BeginOp(t0, 0)
	for i := 1; i < hops; i++ {
		d.ProtectLoad(t0, 0, src)
		if w.m.Peek(d.anchors[0]) != 0 {
			t.Fatalf("anchor published after only %d hops", i)
		}
	}
	d.ProtectLoad(t0, 0, src)
	if w.m.Peek(d.anchors[0]) != uint64(node) {
		t.Fatal("anchor not published on the K-th hop")
	}
	d.EndOp(t0)
	if w.m.Peek(d.anchors[0]) != 0 {
		t.Fatal("anchor not cleared at op end")
	}
}

func TestUnsafeFreeFreesImmediately(t *testing.T) {
	w := newWorld(t, 1)
	u := NewUnsafeFree()
	attach(w, u)
	p := w.al.Alloc(0, 4)
	u.BeginOp(w.ts[0], 0)
	u.Retire(w.ts[0], p)
	if w.al.IsAllocated(p) {
		t.Fatal("UnsafeFree should free at retire")
	}
	u.EndOp(w.ts[0])
	if u.Name() != "UnsafeFree" {
		t.Fatal("name")
	}
}

func TestRefCountSchemeByName(t *testing.T) {
	w := newWorld(t, 1)
	s, err := NewScheme("RefCount", w.sc, w.al)
	if err != nil || s.Name() != "RefCount" {
		t.Fatalf("RefCount registration broken: %v", err)
	}
	if _, err := NewScheme("UnsafeFree", w.sc, w.al); err != nil {
		t.Fatal(err)
	}
}

func TestHazardProtectHandoff(t *testing.T) {
	w := newWorld(t, 1)
	h := NewHazard(w.sc, w.al, 8, 16)
	attach(w, h)
	t0 := w.ts[0]
	node := w.al.Alloc(0, 4)
	h.Protect(t0, 5, node)
	if w.m.Peek(h.base[0]+5) != uint64(node) {
		t.Fatal("Protect did not publish the guard")
	}
	// The pinned node survives scans until the slot clears.
	h.Retire(t0, node)
	h.Drain(t0)
	if !w.al.IsAllocated(node) {
		t.Fatal("pinned node freed")
	}
	h.EndOp(t0)
	h.Drain(t0)
	if w.al.IsAllocated(node) {
		t.Fatal("node not freed after guards cleared")
	}
}

func TestHazardProtectSlotRangePanics(t *testing.T) {
	w := newWorld(t, 1)
	h := NewHazard(w.sc, w.al, 2, 4)
	attach(w, h)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Protect should panic")
		}
	}()
	h.Protect(w.ts[0], 9, 0x40)
}

func TestRefCountProtectHandoff(t *testing.T) {
	w := newWorld(t, 1)
	rc := NewRefCount(w.sc, 8)
	attach(w, rc)
	t0 := w.ts[0]
	a := w.al.Alloc(0, 4)
	b := w.al.Alloc(0, 4)
	rc.Protect(t0, 3, a)
	if rc.counts[a] != 1 {
		t.Fatal("Protect did not count")
	}
	rc.Protect(t0, 3, a) // idempotent for the same occupant
	if rc.counts[a] != 1 {
		t.Fatal("re-Protect double-counted")
	}
	rc.Protect(t0, 3, b) // slot moves a -> b
	if rc.counts[a] != 0 || rc.counts[b] != 1 {
		t.Fatalf("handoff counts wrong: a=%d b=%d", rc.counts[a], rc.counts[b])
	}
	rc.Protect(t0, 3, 0) // release
	if rc.counts[b] != 0 {
		t.Fatal("release did not drop the count")
	}
}

func TestEpochDoubleTickParity(t *testing.T) {
	w := newWorld(t, 1)
	e := NewEpoch(w.sc, 1)
	attach(w, e)
	t0 := w.ts[0]
	e.BeginOp(t0, 0)
	if _, quiet := quiescent(t0, t0); quiet {
		t.Fatal("mid-op thread should not read as quiescent")
	}
	e.EndOp(t0)
	if _, quiet := quiescent(t0, t0); !quiet {
		t.Fatal("idle thread should read as quiescent")
	}
}

func TestDTADrainAfterOps(t *testing.T) {
	w := newWorld(t, 2)
	d := NewDTA(w.sc, w.al, 4, 100)
	attach(w, d)
	t0 := w.ts[0]
	d.BeginOp(t0, 0)
	p := w.al.Alloc(0, 4)
	d.Retire(t0, p)
	d.EndOp(t0)
	d.Drain(t0)
	if w.al.IsAllocated(p) {
		t.Fatal("DTA drain did not free after ops ended")
	}
	if d.Pending(0) != 0 {
		t.Fatal("pending count wrong")
	}
}

func TestHazardEndOpClearsOnlyUsedSlots(t *testing.T) {
	w := newWorld(t, 1)
	h := NewHazard(w.sc, w.al, 48, 64)
	attach(w, h)
	t0 := w.ts[0]
	src := w.al.Static(1)
	node := w.al.Alloc(0, 4)
	w.m.Poke(src, uint64(node))

	h.BeginOp(t0, 0)
	h.ProtectLoad(t0, 1, src)
	before := t0.VTime()
	h.EndOp(t0)
	clearCost := t0.VTime() - before
	// Clearing must touch slots [0,2), not all 48: a handful of stores,
	// far below the cost of 48.
	if clearCost > 10*4+4 {
		t.Fatalf("EndOp cleared too much: %d cycles", clearCost)
	}
	if w.m.Peek(h.base[0]+1) != 0 {
		t.Fatal("used hazard slot not cleared")
	}
	// High-water resets per op.
	h.BeginOp(t0, 0)
	h.EndOp(t0)
	if h.used[0] != 0 {
		t.Fatal("high-water mark not reset")
	}
}
