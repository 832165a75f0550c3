package alloc

import (
	"reflect"
	"testing"
	"testing/quick"

	"stacktrack/internal/mem"
	"stacktrack/internal/rng"
	"stacktrack/internal/word"
)

func newAlloc(t *testing.T) (*Allocator, *mem.Memory) {
	t.Helper()
	m := mem.New(mem.Config{Words: 1 << 16})
	return New(m), m
}

func TestStaticAlignmentAndDisjointness(t *testing.T) {
	a, _ := newAlloc(t)
	p1 := a.Static(5)
	p2 := a.Static(3)
	if uint64(p1)%word.LineWords != 0 || uint64(p2)%word.LineWords != 0 {
		t.Fatal("static allocations must be line-aligned")
	}
	if p2 < p1+5 {
		t.Fatal("static allocations overlap")
	}
	if p1 == 0 {
		t.Fatal("address 0 must stay reserved")
	}
}

func TestStaticAfterHeapPanics(t *testing.T) {
	a, _ := newAlloc(t)
	a.Alloc(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Static after heap use should panic")
		}
	}()
	a.Static(1)
}

func TestAllocZeroesAndAligns(t *testing.T) {
	a, m := newAlloc(t)
	m.Poke(0, 0) // silence unused
	p := a.Alloc(0, 3)
	if uint64(p)%word.AllocAlign != 0 {
		t.Fatalf("object %#x not %d-word aligned", uint64(p), word.AllocAlign)
	}
	for i := word.Addr(0); i < 4; i++ {
		if m.Peek(p+i) != 0 {
			t.Fatal("allocation not zeroed")
		}
	}
}

func TestFreePoisons(t *testing.T) {
	a, m := newAlloc(t)
	p := a.Alloc(0, 4)
	m.Poke(p, 123)
	a.Free(0, p)
	if !word.IsPoison(m.Peek(p)) {
		t.Fatal("freed object not poisoned")
	}
}

func TestFreePoisonDoomsTransactions(t *testing.T) {
	a, m := newAlloc(t)
	p := a.Alloc(0, 4)
	tx := m.Begin(1)
	m.TxRead(tx, p)
	a.Free(0, p)
	if doomed, _ := tx.Doomed(); !doomed {
		t.Fatal("free should doom a transaction still tracking the object")
	}
	m.FinishAbort(tx)
}

func TestDoubleFreePanics(t *testing.T) {
	a, _ := newAlloc(t)
	p := a.Alloc(0, 4)
	a.Free(0, p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	a.Free(0, p)
}

func TestFreeInteriorPanics(t *testing.T) {
	a, _ := newAlloc(t)
	p := a.Alloc(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("interior free should panic")
		}
	}()
	a.Free(0, p+1)
}

func TestFreeNonHeapPanics(t *testing.T) {
	a, _ := newAlloc(t)
	s := a.Static(4)
	a.Alloc(0, 4) // open the heap
	defer func() {
		if recover() == nil {
			t.Fatal("free of a static address should panic")
		}
	}()
	a.Free(0, s)
}

func TestReuseAfterFree(t *testing.T) {
	a, _ := newAlloc(t)
	p := a.Alloc(0, 4)
	a.Free(0, p)
	q := a.Alloc(0, 4)
	if q != p {
		t.Fatalf("expected LIFO reuse of %#x, got %#x", uint64(p), uint64(q))
	}
}

func TestUnalloc(t *testing.T) {
	a, _ := newAlloc(t)
	before := a.Stats().Allocs
	p := a.Alloc(0, 4)
	a.Unalloc(p)
	st := a.Stats()
	if st.Allocs != before {
		t.Fatal("Unalloc should erase the allocation from stats")
	}
	if a.IsAllocated(p) {
		t.Fatal("unallocated object still allocated")
	}
}

func TestObjectStart(t *testing.T) {
	a, _ := newAlloc(t)
	s := a.Static(2)   // static allocation must precede heap use
	p := a.Alloc(0, 8) // class 8
	for i := word.Addr(0); i < 8; i++ {
		os, ok := a.ObjectStart(p + i)
		if !ok || os != p {
			t.Fatalf("ObjectStart(%#x) = %#x,%v want %#x", uint64(p+i), uint64(os), ok, uint64(p))
		}
	}
	if _, ok := a.ObjectStart(0); ok {
		t.Fatal("null resolved to an object")
	}
	if _, ok := a.ObjectStart(s); ok {
		t.Fatal("static address resolved to a heap object")
	}
	a.Free(0, p)
	if _, ok := a.ObjectStart(p); ok {
		t.Fatal("freed slot resolved to an object")
	}
}

func TestSizeOf(t *testing.T) {
	a, _ := newAlloc(t)
	p := a.Alloc(0, 5)
	if n, ok := a.SizeOf(p); !ok || n != 8 {
		t.Fatalf("SizeOf = %d,%v want 8 (size class)", n, ok)
	}
	if _, ok := a.SizeOf(p + 1); ok {
		t.Fatal("SizeOf of interior pointer should fail")
	}
}

func TestOversizeAllocFails(t *testing.T) {
	a, _ := newAlloc(t)
	if _, err := a.TryAlloc(0, PageWords+1); err == nil {
		t.Fatal("oversize allocation should fail")
	}
}

func TestExhaustion(t *testing.T) {
	m := mem.New(mem.Config{Words: 4 * PageWords})
	a := New(m)
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = a.TryAlloc(0, 256); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("heap never exhausted")
	}
}

func TestDifferentClassesDisjoint(t *testing.T) {
	a, _ := newAlloc(t)
	small := a.Alloc(0, 2)
	big := a.Alloc(0, 100)
	ss, _ := a.SizeOf(small)
	if small+word.Addr(ss) > big && big+128 > small && word.Line(small) == word.Line(big) {
		t.Fatal("objects of different classes share a page unexpectedly")
	}
	if os, ok := a.ObjectStart(big + 77); !ok || os != big {
		t.Fatal("interior pointer into large object not resolved")
	}
}

// TestAllocatorInvariantsProperty runs random alloc/free sequences and
// checks: no two live objects overlap, live stats match, ObjectStart
// resolves every live interior pointer, and freed memory is poisoned.
func TestAllocatorInvariantsProperty(t *testing.T) {
	run := func(seed uint64) bool {
		m := mem.New(mem.Config{Words: 1 << 15})
		a := New(m)
		r := rng.New(seed)
		type obj struct {
			p word.Addr
			n int // class size
		}
		var live []obj
		for i := 0; i < 800; i++ {
			if len(live) == 0 || r.Intn(100) < 55 {
				req := 1 + r.Intn(40)
				p, err := a.TryAlloc(0, req)
				if err != nil {
					continue
				}
				n, _ := a.SizeOf(p)
				live = append(live, obj{p, n})
			} else {
				k := r.Intn(len(live))
				a.Free(0, live[k].p)
				if !word.IsPoison(m.Peek(live[k].p)) {
					t.Log("freed object not poisoned")
					return false
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if a.Stats().LiveObjects != uint64(len(live)) {
			t.Logf("live objects %d, tracked %d", a.Stats().LiveObjects, len(live))
			return false
		}
		// Overlap and range-query checks.
		seen := map[word.Addr]bool{}
		for _, o := range live {
			for i := 0; i < o.n; i++ {
				w := o.p + word.Addr(i)
				if seen[w] {
					t.Log("overlapping live objects")
					return false
				}
				seen[w] = true
				if os, ok := a.ObjectStart(w); !ok || os != o.p {
					t.Log("ObjectStart failed for live interior pointer")
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// refAllocator is the free-list allocator Allocator must match: claiming a
// page pushes every slot onto the class's free list, lowest address on
// top, and an allocation zeroes its object one Poke per word. It keeps
// only what decides addresses, memory contents and saved state.
type refAllocator struct {
	m                            *mem.Memory
	staticBrk, heapBase, heapBrk word.Addr
	pages                        []PageState
	freeLists                    [][]word.Addr
}

var refClassSizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

func newRefAllocator(m *mem.Memory) *refAllocator {
	return &refAllocator{m: m, staticBrk: word.LineWords, freeLists: make([][]word.Addr, len(refClassSizes))}
}

func (a *refAllocator) static(n int) word.Addr {
	brk := (uint64(a.staticBrk) + word.LineWords - 1) &^ (word.LineWords - 1)
	a.staticBrk = word.Addr(brk + uint64(n))
	return word.Addr(brk)
}

func (a *refAllocator) alloc(n int) (word.Addr, bool) {
	c := 0
	for refClassSizes[c] < n {
		c++
	}
	size := refClassSizes[c]
	if len(a.freeLists[c]) == 0 {
		if a.heapBase == 0 {
			a.heapBase = word.Addr((uint64(a.staticBrk) + PageWords - 1) &^ (PageWords - 1))
			a.heapBrk = a.heapBase
		}
		if uint64(a.heapBrk)+PageWords > uint64(a.m.Size()) {
			return 0, false
		}
		base := a.heapBrk
		a.heapBrk += PageWords
		a.pages = append(a.pages, PageState{Base: base, Class: int8(c), Allocated: make([]bool, PageWords/size)})
		for i := PageWords/size - 1; i >= 0; i-- {
			a.freeLists[c] = append(a.freeLists[c], base+word.Addr(i*size))
		}
	}
	fl := a.freeLists[c]
	p := fl[len(fl)-1]
	a.freeLists[c] = fl[:len(fl)-1]
	pg, slot := a.locate(p)
	pg.Allocated[slot] = true
	for i := 0; i < size; i++ {
		a.m.Poke(p+word.Addr(i), 0)
	}
	return p, true
}

func (a *refAllocator) locate(p word.Addr) (*PageState, int) {
	pg := &a.pages[(p-a.heapBase)/PageWords]
	return pg, int(p-pg.Base) / refClassSizes[pg.Class]
}

// release is Free (poison with plain stores) or, for unalloc, Unalloc
// (poison with Pokes).
func (a *refAllocator) release(p word.Addr, unalloc bool) {
	pg, slot := a.locate(p)
	pg.Allocated[slot] = false
	for i := 0; i < refClassSizes[pg.Class]; i++ {
		if unalloc {
			a.m.Poke(p+word.Addr(i), word.Poison)
		} else {
			a.m.WritePlain(0, p+word.Addr(i), word.Poison)
		}
	}
	a.freeLists[pg.Class] = append(a.freeLists[pg.Class], p)
}

func (a *refAllocator) saveState() *State {
	s := &State{StaticBrk: a.staticBrk, HeapBase: a.heapBase, HeapBrk: a.heapBrk}
	for _, pg := range a.pages {
		s.Pages = append(s.Pages, PageState{pg.Base, pg.Class, append([]bool(nil), pg.Allocated...)})
	}
	s.FreeLists = make([][]word.Addr, len(a.freeLists))
	for c, fl := range a.freeLists {
		s.FreeLists[c] = append([]word.Addr(nil), fl...)
	}
	return s
}

// TestAllocatorMatchesReference drives Allocator and refAllocator, each on
// its own memory, through the same random Alloc/Free/Unalloc sequence over
// every size class, in phases that grow and shrink the live set, so every
// class both reuses freed objects and claims further pages. Halfway, both memories are
// released and rebuilt from saved state. Every Alloc must return the same
// address on both and an all-zero object, and the saved allocator and
// memory states must be identical.
func TestAllocatorMatchesReference(t *testing.T) {
	const words, staticWords, steps = 1 << 18, 100, 12000
	ma, mr := mem.New(mem.Config{Words: words}), mem.New(mem.Config{Words: words})
	a, ref := New(ma), newRefAllocator(mr)
	a.Static(staticWords)
	ref.static(staticWords)
	compare := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(a.SaveState(), ref.saveState()) {
			t.Fatalf("%s: SaveState differs from the reference's", when)
		}
		if !reflect.DeepEqual(ma.SaveState(), mr.SaveState()) {
			t.Fatalf("%s: memory state differs from the reference's", when)
		}
	}
	r := rng.New(42)
	var live []word.Addr
	var grown, reused [numClasses]int
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			compare("before the round trip")
			as, ms := a.SaveState(), ma.SaveState()
			rs, mrs := ref.saveState(), mr.SaveState()
			ma.Release()
			mr.Release()
			ma, mr = mem.New(mem.Config{Words: words}), mem.New(mem.Config{Words: words})
			ma.RestoreState(ms)
			mr.RestoreState(mrs)
			a, ref = New(ma), newRefAllocator(mr)
			a.Static(staticWords)
			ref.static(staticWords)
			a.RestoreState(as)
			ref.heapBase, ref.heapBrk = rs.HeapBase, rs.HeapBrk
			ref.pages, ref.freeLists = rs.Pages, rs.FreeLists
			compare("after the round trip")
		}
		allocPct := [...]int{85, 85, 25, 75, 25, 75, 25, 75}[step*8/steps]
		if len(live) == 0 || r.Intn(100) < allocPct {
			// Small classes, whose pages hold more slots, come up more often.
			c := min(r.Intn(numClasses), r.Intn(numClasses))
			size := 2 << c
			n := size/2 + 1 + r.Intn(size/2)
			heapBrk, hadPage := a.heapBrk, a.fresh[c].end != 0
			fromList := len(a.freeLists[c]) > 0
			p, err := a.TryAlloc(0, n)
			q, ok := ref.alloc(n)
			if err != nil || !ok {
				t.Fatalf("step %d: out of memory (%v, reference ok %v)", step, err, ok)
			}
			if p != q {
				t.Fatalf("step %d: Alloc(%d) = %#x, reference %#x", step, n, uint64(p), uint64(q))
			}
			if a.heapBrk != heapBrk && hadPage {
				grown[c]++
			}
			if fromList {
				reused[c]++
			}
			for i := 0; i < size; i++ {
				if v := ma.Peek(p + word.Addr(i)); v != 0 {
					t.Fatalf("step %d: Alloc(%d) = %#x holds %#x at word %d", step, n, uint64(p), v, i)
				}
				ma.Poke(p+word.Addr(i), uint64(step)<<8|uint64(i)+1)
				mr.Poke(p+word.Addr(i), uint64(step)<<8|uint64(i)+1)
			}
			live = append(live, p)
			continue
		}
		k := r.Intn(len(live))
		p := live[k]
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		unalloc := r.Bool(0.2)
		if unalloc {
			a.Unalloc(p)
		} else {
			a.Free(0, p)
		}
		ref.release(p, unalloc)
	}
	compare("at the end")
	for c := range numClasses {
		if grown[c] == 0 || reused[c] == 0 {
			t.Fatalf("class %d: %d later pages claimed, %d objects reused; the sequence misses a path", c, grown[c], reused[c])
		}
	}
}
