package core

import (
	"testing"

	"stacktrack/internal/word"
)

// The hashed scan (§5.2) must reach exactly the same free/defer decisions
// as the per-pointer Algorithm 1 scan.

func TestHashedScanFreesUnreferenced(t *testing.T) {
	w := newWorld(t, 2, Config{HashedScan: true})
	scanner := w.ts[0]
	obj := w.al.Alloc(0, 4)
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if w.al.IsAllocated(obj) {
		t.Fatal("unreferenced object not freed by hashed scan")
	}
}

func TestHashedScanDefersReferences(t *testing.T) {
	w := newWorld(t, 2, Config{HashedScan: true})
	scanner, holder := w.ts[0], w.ts[1]
	stackObj := w.al.Alloc(0, 4)
	regObj := w.al.Alloc(0, 4)
	interior := w.al.Alloc(0, 16)
	free := w.al.Alloc(0, 4)

	w.m.Poke(holder.StackBase+2, uint64(stackObj))
	w.m.Poke(holder.RegsBase+3, uint64(regObj))
	w.m.Poke(holder.StackBase+5, uint64(interior)+7) // interior pointer
	fakeActive(w.m, holder, 16)

	for _, p := range []word.Addr{stackObj, regObj, interior, free} {
		w.st.Retire(scanner, p)
	}
	w.st.scanAndFreeSync(scanner)

	if !w.al.IsAllocated(stackObj) || !w.al.IsAllocated(regObj) || !w.al.IsAllocated(interior) {
		t.Fatal("hashed scan freed a referenced object")
	}
	if w.al.IsAllocated(free) {
		t.Fatal("hashed scan failed to free the unreferenced object")
	}
	if w.st.PendingFrees(scanner) != 3 {
		t.Fatalf("pending = %d, want 3", w.st.PendingFrees(scanner))
	}

	// Everything reclaims once the holder goes idle.
	w.m.Poke(holder.ActivityAddr(), 0)
	w.st.scanAndFreeSync(scanner)
	if w.st.PendingFrees(scanner) != 0 {
		t.Fatal("hashed scan did not drain after holder went idle")
	}
}

func TestHashedScanReadsRefSets(t *testing.T) {
	w := newWorld(t, 2, Config{HashedScan: true})
	scanner, holder := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	w.st.slowCount = 1
	fakeActive(w.m, holder, 0)
	w.m.Poke(holder.RefsBase, uint64(obj))
	w.m.Poke(holder.RefsLenAddr(), 1)
	w.st.Retire(scanner, obj)
	w.st.scanAndFreeSync(scanner)
	if !w.al.IsAllocated(obj) {
		t.Fatal("hashed scan ignored a slow-path reference set")
	}
	w.st.slowCount = 0
}

func TestHashedScanConsistencyRestart(t *testing.T) {
	w := newWorld(t, 2, Config{HashedScan: true, ScanChunkWords: 4})
	scanner, victim := w.ts[0], w.ts[1]
	obj := w.al.Alloc(0, 4)
	fakeActive(w.m, victim, 64)
	w.st.Retire(scanner, obj)

	s := w.st.startHashedScan(scanner)
	for s.phase != phaseStack {
		if s.step(scanner) {
			t.Fatal("scan finished prematurely")
		}
	}
	s.step(scanner)
	w.m.Poke(victim.SplitsAddr(), w.m.Peek(victim.SplitsAddr())+1)
	for !s.step(scanner) {
	}
	if w.st.Stats().ScanRestarts == 0 {
		t.Fatal("hashed scan skipped the consistency retry protocol")
	}
}

func TestAIMDPredictorHalves(t *testing.T) {
	cfg := Config{InitialLimit: 48, Streak: 1, Predictor: PredictorAIMD}.withDefaults()
	ts := &tstate{}
	ts.onSegAbort(cfg, 0, 0)
	if got := ts.segLimit(cfg, 0, 0); got != 24 {
		t.Fatalf("after one abort streak: %d, want 24", got)
	}
	for i := 0; i < 10; i++ {
		ts.onSegAbort(cfg, 0, 0)
	}
	if got := ts.segLimit(cfg, 0, 0); got != 1 {
		t.Fatalf("AIMD floor violated: %d", got)
	}
	ts.onSegCommit(cfg, 0, 0)
	if got := ts.segLimit(cfg, 0, 0); got != 2 {
		t.Fatalf("AIMD additive increase broken: %d", got)
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		n, bucket int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {15, 3},
		{16, 4}, {32, 5}, {50, 5}, {64, 6}, {127, 6}, {128, 7}, {100000, 7},
	}
	for _, c := range cases {
		if got := HistBucket(c.n); got != c.bucket {
			t.Errorf("HistBucket(%d) = %d, want %d", c.n, got, c.bucket)
		}
	}
	if HistLabel(0) != "1" || HistLabel(7) != "128+" || HistLabel(5) != "32-63" {
		t.Errorf("labels wrong: %q %q %q", HistLabel(0), HistLabel(7), HistLabel(5))
	}
}

func TestHistogramAccumulates(t *testing.T) {
	w := newWorld(t, 1, Config{InitialLimit: 10})
	th := w.ts[0]
	r := NewRunner(w.st, nil)
	runOp(t, th, r, loopOp(0, 35))
	var total uint64
	for _, n := range w.st.Stats().SegLenHist {
		total += n
	}
	if total != w.st.Stats().Segments {
		t.Fatalf("histogram total %d != segments %d", total, w.st.Stats().Segments)
	}
}
