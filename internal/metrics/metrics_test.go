package metrics

import (
	"strings"
	"testing"
)

// TestBucketOf pins the log2 bucket boundaries, including the powers
// of two on each side and the overflow cap.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    uint64
		n    int
		want int
	}{
		{0, 8, 0},
		{1, 8, 0},
		{2, 8, 1},
		{3, 8, 1},
		{4, 8, 2},
		{7, 8, 2},
		{8, 8, 3},
		{63, 8, 5},
		{64, 8, 6},
		{127, 8, 6},
		{128, 8, 7}, // last in-range power of two
		{129, 8, 7}, // overflow capped
		{1 << 30, 8, 7},
		{1, 32, 0},
		{1 << 20, 32, 20},
		{(1 << 20) - 1, 32, 19},
		{(1 << 20) + 1, 32, 20},
		{1 << 40, 32, 31}, // beyond 2^31 → overflow bucket
		{^uint64(0), 32, 31},
	}
	for _, c := range cases {
		if got := BucketOf(c.v, c.n); got != c.want {
			t.Errorf("BucketOf(%d, %d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

func TestBucketLabel(t *testing.T) {
	if got := BucketLabel(0, 8); got != "1" {
		t.Errorf("label 0 = %q", got)
	}
	if got := BucketLabel(6, 8); got != "64" {
		t.Errorf("label 6 = %q", got)
	}
	if got := BucketLabel(7, 8); got != "128+" {
		t.Errorf("label 7 = %q", got)
	}
}

// TestCounterLaneMerge exercises many per-thread lanes and checks the
// merged value and per-lane reads.
func TestCounterLaneMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.ctr")
	var want uint64
	for tid := 0; tid < MaxThreads; tid++ {
		d := uint64(tid * 3)
		c.Add(tid, d)
		c.Inc(tid)
		want += d + 1
	}
	if got := c.Value(); got != want {
		t.Fatalf("merged value %d, want %d", got, want)
	}
	if got := c.Lane(5); got != 16 {
		t.Fatalf("lane 5 = %d, want 16", got)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset did not zero")
	}
}

func TestHistogramLanes(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist", 8)
	h.Observe(0, 1)
	h.Observe(1, 200) // overflow bucket from a different lane
	h.Observe(0, 200)
	if got := h.Bucket(0); got != 1 {
		t.Fatalf("bucket 0 = %d", got)
	}
	if got := h.Bucket(7); got != 2 {
		t.Fatalf("bucket 7 = %d", got)
	}
	if h.LaneBucket(1, 7) != 1 || h.LaneBucket(0, 7) != 1 {
		t.Fatal("lane buckets wrong")
	}
	if h.Count() != 3 || h.Sum() != 401 {
		t.Fatalf("count %d sum %d", h.Count(), h.Sum())
	}
}

// TestRegistryIdentity verifies get-or-create returns the same handle
// and that type conflicts panic.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	if b := r.Counter("x"); a != b {
		t.Fatal("second lookup returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	r.Gauge("x")
}

// TestRegistryReset: counters and histograms zero, gauges survive.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 4)
	c.Inc(0)
	g.Add(7)
	h.Observe(0, 5)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("reset missed a counter or histogram")
	}
	if g.Value() != 7 {
		t.Fatal("reset clobbered a gauge")
	}
}

// TestSpanSelfCycles checks the inner-counter mechanism: leaf cycles
// inside a span are excluded from the span's self-cycles.
func TestSpanSelfCycles(t *testing.T) {
	tp := &ThreadProfile{ID: 0}
	sp := tp.SpanStart()
	tp.AddLeaf(PhaseFence, 80)
	tp.AddLeaf(PhaseFree, 90)
	tp.SpanBlock(sp, 0, 2, "op", 1000)
	if got := tp.PhaseCycles(PhaseBlock); got != 830 {
		t.Fatalf("block self-cycles %d, want 830", got)
	}
	if tp.PhaseCycles(PhaseFence) != 80 || tp.PhaseCycles(PhaseFree) != 90 {
		t.Fatal("leaf phases wrong")
	}
	if tp.Total() != 1000 {
		t.Fatalf("total %d, want 1000 (phases must partition elapsed)", tp.Total())
	}
	// Elapsed fully claimed by leaves → no negative self-cycles.
	sp2 := tp.SpanStart()
	tp.AddLeaf(PhaseFence, 500)
	tp.SpanPhase(sp2, PhaseScan, 400)
	if tp.PhaseCycles(PhaseScan) != 0 {
		t.Fatal("over-claimed span must clamp to zero")
	}
}

func TestFoldedStacksDeterministic(t *testing.T) {
	p := NewProfiler()
	t1 := p.Thread(1)
	t0 := p.Thread(0)
	t0.AddPhase(PhaseFence, 10)
	sp := t0.SpanStart()
	t0.SpanBlock(sp, 0, 0, "push", 100)
	t1.AddPhase(PhasePreempt, 5)
	var a, b strings.Builder
	if err := p.FoldedStacks(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.FoldedStacks(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("folded output not deterministic")
	}
	want := "t0;fence 10\nt0;block;push;b0 100\nt1;preempt 5\n"
	if a.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", a.String(), want)
	}
}

func TestSummary(t *testing.T) {
	p := NewProfiler()
	tp := p.Thread(0)
	sp := tp.SpanStart()
	tp.AddLeaf(PhaseTxCommit, 30)
	tp.SpanBlock(sp, 1, 0, "pop", 130)
	s := p.Summary()
	if s.TotalCycles != 130 {
		t.Fatalf("total %d", s.TotalCycles)
	}
	if s.Phases["block"] != 100 || s.Phases["tx-commit"] != 30 {
		t.Fatalf("phases %v", s.Phases)
	}
	if s.Ops["pop"] != 100 {
		t.Fatalf("ops %v", s.Ops)
	}
	top := s.TopPhases()
	if len(top) != 2 || top[0].Name != "block" {
		t.Fatalf("top phases %v", top)
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3, 5)
	r.Gauge("g").Set(-2)
	r.Histogram("h", 4).Observe(0, 3)
	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Gauges["g"] != -2 {
		t.Fatalf("snapshot %+v", s)
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 3 || len(hs.Buckets) != 4 || hs.Buckets[1] != 1 {
		t.Fatalf("hist snapshot %+v", hs)
	}
}
