package ds_test

import (
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/ds"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
	"stacktrack/internal/workload"
)

// fixture is a minimal world for driving data structures directly.
type fixture struct {
	m  *mem.Memory
	al *alloc.Allocator
	sc *sched.Scheduler
	ts []*sched.Thread
}

type idleStepper struct{}

func (idleStepper) Step(*sched.Thread) bool { return true }

func newFixture(t *testing.T, threads int) *fixture {
	t.Helper()
	m := mem.New(mem.Config{Words: 1 << 20})
	al := alloc.New(m)
	sc := sched.NewScheduler(m, topo.Haswell8Way(), 1)
	f := &fixture{m: m, al: al, sc: sc}
	leak := reclaim.NewLeak()
	for i := 0; i < threads; i++ {
		th := sched.NewThread(i, m, al, uint64(i)*7+1)
		th.Scheme = leak
		th.Validate = true
		f.ts = append(f.ts, th)
	}
	return f
}

// call runs one operation to completion on a thread with a plain runner.
func (f *fixture) call(t *testing.T, th *sched.Thread, op *prog.Op, args ...uint64) uint64 {
	t.Helper()
	var a [3]uint64
	copy(a[:], args)
	th.SetReg(prog.RegArg1, a[0])
	th.SetReg(prog.RegArg2, a[1])
	th.SetReg(prog.RegArg3, a[2])
	r := &prog.PlainRunner{}
	r.Start(th, op)
	for i := 0; ; i++ {
		if i > 10_000_000 {
			t.Fatalf("operation %s did not terminate", op.Name)
		}
		if r.Step(th) {
			break
		}
	}
	if th.UAFReads != 0 {
		t.Fatalf("use-after-free read during %s", op.Name)
	}
	return th.Reg(prog.RegResult)
}

// --- Sequential model checks ---------------------------------------------------

type setOps struct {
	contains, insert, del *prog.Op
}

func sequentialSetCheck(t *testing.T, f *fixture, ops setOps, keyRange uint64, rounds int) {
	th := f.ts[0]
	model := map[uint64]bool{}
	r := rng.New(123)
	for i := 0; i < rounds; i++ {
		key := 1 + r.Uint64n(keyRange)
		switch r.Intn(3) {
		case 0:
			got := f.call(t, th, ops.insert, key, key+100) != 0
			want := !model[key]
			if got != want {
				t.Fatalf("round %d: insert(%d) = %v, model %v", i, key, got, want)
			}
			model[key] = true
		case 1:
			got := f.call(t, th, ops.del, key) != 0
			want := model[key]
			if got != want {
				t.Fatalf("round %d: delete(%d) = %v, model %v", i, key, got, want)
			}
			delete(model, key)
		default:
			got := f.call(t, th, ops.contains, key) != 0
			if got != model[key] {
				t.Fatalf("round %d: contains(%d) = %v, model %v", i, key, got, model[key])
			}
		}
	}
}

func TestListSequentialModel(t *testing.T) {
	f := newFixture(t, 1)
	l := ds.NewList(f.al)
	sequentialSetCheck(t, f, setOps{l.OpContains, l.OpInsert, l.OpDelete}, 64, 3000)
	keys := ds.Walk(f.m, l.Head(), 1<<16)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("list not sorted / has duplicates")
		}
	}
}

func TestSkipListSequentialModel(t *testing.T) {
	f := newFixture(t, 1)
	s := ds.NewSkipList(f.al)
	sequentialSetCheck(t, f, setOps{s.OpContains, s.OpInsert, s.OpDelete}, 128, 3000)
	keys := s.WalkLevel(f.m, 0, 1<<16)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("skip list level 0 not sorted / has duplicates")
		}
	}
	// Every higher level must be a subsequence of level 0.
	base := map[uint64]bool{}
	for _, k := range keys {
		base[k] = true
	}
	for level := 1; level < ds.MaxLevel; level++ {
		for _, k := range s.WalkLevel(f.m, level, 1<<16) {
			if !base[k] {
				t.Fatalf("level %d contains key %d missing from level 0", level, k)
			}
		}
	}
}

func TestHashSequentialModel(t *testing.T) {
	f := newFixture(t, 1)
	h := ds.NewHashTable(f.al, 32)
	sequentialSetCheck(t, f, setOps{h.OpContains, h.OpInsert, h.OpDelete}, 300, 3000)
}

func TestHashBucketCountValidation(t *testing.T) {
	f := newFixture(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two bucket count should panic")
		}
	}()
	ds.NewHashTable(f.al, 33)
}

func TestQueueSequentialFIFO(t *testing.T) {
	f := newFixture(t, 1)
	q := ds.NewQueue(f.al)
	th := f.ts[0]
	var model []uint64
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		switch r.Intn(3) {
		case 0, 1:
			v := 1 + r.Uint64n(1000)
			f.call(t, th, q.OpEnqueue, v)
			model = append(model, v)
		default:
			got := f.call(t, th, q.OpDequeue)
			if len(model) == 0 {
				if got != 0 {
					t.Fatalf("dequeue on empty returned %d", got)
				}
			} else {
				if got != model[0] {
					t.Fatalf("dequeue = %d, want %d (FIFO)", got, model[0])
				}
				model = model[1:]
			}
		}
	}
	rest := q.Drain(f.m, 1<<16)
	if len(rest) != len(model) {
		t.Fatalf("drain length %d, model %d", len(rest), len(model))
	}
	for i := range rest {
		if rest[i] != model[i] {
			t.Fatal("drain order differs from model")
		}
	}
}

func TestQueuePeek(t *testing.T) {
	f := newFixture(t, 1)
	q := ds.NewQueue(f.al)
	th := f.ts[0]
	if got := f.call(t, th, q.OpPeek); got != 0 {
		t.Fatalf("peek on empty = %d", got)
	}
	f.call(t, th, q.OpEnqueue, 42)
	f.call(t, th, q.OpEnqueue, 43)
	if got := f.call(t, th, q.OpPeek); got != 42 {
		t.Fatalf("peek = %d, want 42", got)
	}
	if got := f.call(t, th, q.OpDequeue); got != 42 {
		t.Fatalf("dequeue = %d, want 42", got)
	}
	if got := f.call(t, th, q.OpPeek); got != 43 {
		t.Fatalf("peek after dequeue = %d, want 43", got)
	}
}

func TestSeededStructures(t *testing.T) {
	f := newFixture(t, 1)
	th := f.ts[0]

	l := ds.NewList(f.al)
	s := ds.NewSkipList(f.al)
	h := ds.NewHashTable(f.al, 64)
	keys := []uint64{3, 7, 10, 500, 10_000}
	l.Seed(f.al, f.m, keys, 1)
	s.Seed(f.al, f.m, keys, 1, 99)
	h.Seed(f.al, f.m, keys, 1)

	for _, k := range keys {
		if f.call(t, th, l.OpContains, k) == 0 {
			t.Fatalf("list missing seeded key %d", k)
		}
		if f.call(t, th, s.OpContains, k) == 0 {
			t.Fatalf("skip list missing seeded key %d", k)
		}
		if f.call(t, th, h.OpContains, k) == 0 {
			t.Fatalf("hash missing seeded key %d", k)
		}
	}
	for _, k := range []uint64{1, 8, 499, 9_999} {
		if f.call(t, th, l.OpContains, k) != 0 ||
			f.call(t, th, s.OpContains, k) != 0 ||
			f.call(t, th, h.OpContains, k) != 0 {
			t.Fatalf("phantom key %d", k)
		}
	}
}

func TestRBTreeSearch(t *testing.T) {
	f := newFixture(t, 1)
	r := ds.NewRBTree(f.al)
	keys := make([]uint64, 1023)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
	}
	r.Seed(f.al, f.m, keys)
	th := f.ts[0]
	for _, k := range []uint64{2, 1024, 2046} {
		if got := f.call(t, th, r.OpSearch, k); got != k+1 {
			t.Fatalf("search(%d) = %d, want %d", k, got, k+1)
		}
	}
	for _, k := range []uint64{1, 3, 2047, 99999} {
		if got := f.call(t, th, r.OpSearch, k); got != 0 {
			t.Fatalf("search(%d) = %d, want 0 (absent)", k, got)
		}
	}
}

// --- Concurrent stress -----------------------------------------------------------

// stressSet runs a multi-threaded random workload through the scheduler and
// checks conservation: initial + successful inserts - successful deletes ==
// final membership, plus per-chain sortedness.
func stressSet(t *testing.T, threads int, build func(f *fixture) (setOps, func() [][]uint64)) {
	f := newFixture(t, threads)
	ops, chains := build(f)

	count := func() int {
		n := 0
		for _, c := range chains() {
			n += len(c)
		}
		return n
	}

	const keyRange = 128
	var succIns, succDel int
	initial := count()

	stop := false
	for i, th := range f.ts {
		th := th
		d := &prog.Driver{
			Runner: &prog.PlainRunner{},
			Next: func(t *sched.Thread) (*prog.Op, [3]uint64, bool) {
				if stop {
					return nil, [3]uint64{}, false
				}
				key := 1 + t.Rng.Uint64n(keyRange)
				switch t.Rng.Intn(3) {
				case 0:
					return ops.insert, [3]uint64{key, key}, true
				case 1:
					return ops.del, [3]uint64{key}, true
				default:
					return ops.contains, [3]uint64{key}, true
				}
			},
			OnDone: func(tt *sched.Thread, op *prog.Op, result uint64) {
				if result == 0 {
					return
				}
				switch op {
				case ops.insert:
					succIns++
				case ops.del:
					succDel++
				}
			},
		}
		f.sc.AddThread(th, d)
		_ = i
	}
	f.sc.Run(cost.FromSeconds(0.002))
	stop = true
	f.sc.Run(cost.FromSeconds(0.1)) // let in-flight operations finish

	for _, chain := range chains() {
		for i := 1; i < len(chain); i++ {
			if chain[i-1] >= chain[i] {
				t.Fatal("structure unsorted or duplicated after stress")
			}
		}
	}
	want := initial + succIns - succDel
	if got := count(); got != want {
		t.Fatalf("conservation violated: %d keys, want %d (initial %d +ins %d -del %d)",
			got, want, initial, succIns, succDel)
	}
	for _, th := range f.ts {
		if th.UAFReads != 0 {
			t.Fatal("use-after-free observed (leak scheme should never free)")
		}
	}
}

func TestListConcurrentStress(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		n := n
		t.Run(map[int]string{2: "2threads", 4: "4threads", 8: "8threads"}[n], func(t *testing.T) {
			stressSet(t, n, func(f *fixture) (setOps, func() [][]uint64) {
				l := ds.NewList(f.al)
				l.Seed(f.al, f.m, []uint64{10, 20, 30, 40, 50}, 1)
				return setOps{l.OpContains, l.OpInsert, l.OpDelete},
					func() [][]uint64 { return [][]uint64{ds.Walk(f.m, l.Head(), 1<<18)} }
			})
		})
	}
}

func TestSkipListConcurrentStress(t *testing.T) {
	stressSet(t, 6, func(f *fixture) (setOps, func() [][]uint64) {
		s := ds.NewSkipList(f.al)
		s.Seed(f.al, f.m, []uint64{10, 20, 30, 40, 50}, 1, 3)
		return setOps{s.OpContains, s.OpInsert, s.OpDelete},
			func() [][]uint64 { return [][]uint64{s.WalkLevel(f.m, 0, 1<<18)} }
	})
}

func TestHashConcurrentStress(t *testing.T) {
	stressSet(t, 6, func(f *fixture) (setOps, func() [][]uint64) {
		h := ds.NewHashTable(f.al, 16)
		return setOps{h.OpContains, h.OpInsert, h.OpDelete},
			func() [][]uint64 { return h.Chains(f.m, 1<<18) }
	})
}

// TestQueueConcurrentStress checks element conservation under concurrent
// enqueues and dequeues.
func TestQueueConcurrentStress(t *testing.T) {
	f := newFixture(t, 6)
	q := ds.NewQueue(f.al)
	seed := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	q.Seed(f.al, f.m, seed)

	var enq, deq int
	stop := false
	for _, th := range f.ts {
		d := &prog.Driver{
			Runner: &prog.PlainRunner{},
			Next: func(t *sched.Thread) (*prog.Op, [3]uint64, bool) {
				if stop {
					return nil, [3]uint64{}, false
				}
				if t.Rng.Intn(2) == 0 {
					return q.OpEnqueue, [3]uint64{1 + t.Rng.Uint64n(1000)}, true
				}
				return q.OpDequeue, [3]uint64{}, true
			},
			OnDone: func(tt *sched.Thread, op *prog.Op, result uint64) {
				if op == q.OpEnqueue {
					enq++
				} else if result != 0 {
					deq++
				}
			},
		}
		f.sc.AddThread(th, d)
	}
	f.sc.Run(cost.FromSeconds(0.002))
	stop = true
	f.sc.Run(cost.FromSeconds(0.1))

	rest := q.Drain(f.m, 1<<18)
	if len(rest) != len(seed)+enq-deq {
		t.Fatalf("conservation violated: %d left, want %d (+%d enq -%d deq of %d)",
			len(rest), len(seed)+enq-deq, enq, deq, len(seed))
	}
	for _, th := range f.ts {
		if th.UAFReads != 0 {
			t.Fatal("use-after-free observed")
		}
	}
}

func TestSkipListDebugEventHook(t *testing.T) {
	f := newFixture(t, 1)
	s := ds.NewSkipList(f.al)
	s.Seed(f.al, f.m, []uint64{10, 20, 30}, 1, 3)
	events := map[string]int{}
	ds.DebugEvent = func(th *sched.Thread, what string, node word.Addr, level int, a, b uint64) {
		events[what]++
	}
	defer func() { ds.DebugEvent = nil }()
	if f.call(t, f.ts[0], s.OpDelete, 20) == 0 {
		t.Fatal("delete failed")
	}
	if f.call(t, f.ts[0], s.OpInsert, 25, 1) == 0 {
		t.Fatal("insert failed")
	}
	if events["mark"] == 0 || events["snip"] == 0 || events["link"] == 0 {
		t.Fatalf("debug events missing: %v", events)
	}
}

// TestCountingWalks: the counting walks behind the harness's drain
// baselines agree with the walks that build key slices, and allocate
// nothing.
func TestCountingWalks(t *testing.T) {
	f := newFixture(t, 1)
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(2*i + 1)
	}
	// Structure roots are static allocations, so every structure is
	// built before the first heap allocation (the queue's dummy node).
	l, s, h, q := ds.NewList(f.al), ds.NewSkipList(f.al), ds.NewHashTable(f.al, 32), ds.NewQueue(f.al)
	l.Seed(f.al, f.m, keys, 7)
	s.Seed(f.al, f.m, keys, 7, 3)
	q.Seed(f.al, f.m, keys)
	h.Seed(f.al, f.m, keys, 7)
	const limit = 1 << 16
	for _, c := range []struct {
		name  string
		count func() int
		walk  []uint64
	}{
		{"list", func() int { return ds.WalkLen(f.m, l.Head(), limit) }, ds.Walk(f.m, l.Head(), limit)},
		{"skiplist", func() int { return s.LevelLen(f.m, 0, limit) }, s.WalkLevel(f.m, 0, limit)},
		{"queue", func() int { return q.Len(f.m, limit) }, q.Drain(f.m, limit)},
		{"hash", func() int { return h.Count(f.m, limit) }, keys},
	} {
		if got := c.count(); got != len(c.walk) || got != len(keys) {
			t.Errorf("%s: counted %d, walk has %d, seeded %d", c.name, got, len(c.walk), len(keys))
		}
		if a := testing.AllocsPerRun(10, func() { c.count() }); a != 0 {
			t.Errorf("%s: counting walk allocates %.0f times", c.name, a)
		}
	}
}

// BenchmarkSkipListSeed times the tx-scan prefill: 100,000 keys of
// 200,000 seeded into a skip list on a run-sized memory, as the harness
// builds it. Only Seed is timed; each iteration takes a scrubbed memory
// from the pool, as a run does.
func BenchmarkSkipListSeed(b *testing.B) {
	keys := workload.SampleKeys(1, 100000, 200000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := mem.New(mem.Config{Words: 1 << 22})
		al := alloc.New(m)
		s := ds.NewSkipList(al)
		b.StartTimer()
		s.Seed(al, m, keys, 7, uint64(i))
		b.StopTimer()
		m.Release()
		b.StartTimer()
	}
}
