// Snapshot-state support (internal/snap): the allocator's mutable state is
// the static/heap break points, the per-page allocation bits, and the
// per-class free lists, bump cursors included. Free-list ORDER is part of
// the state: allocation order after a restore must match the uninterrupted
// run exactly, and the lists are LIFO stacks. The activity counters ride
// along by value.

package alloc

import "stacktrack/internal/word"

// PageState is one heap page's metadata.
type PageState struct {
	Base      word.Addr
	Class     int8
	Allocated []bool
}

// State is an Allocator's complete mutable state. All slices are copies.
type State struct {
	StaticBrk word.Addr
	HeapBase  word.Addr
	HeapBrk   word.Addr

	Pages     []PageState   // sorted by Base
	FreeLists [][]word.Addr // per class, bottom of stack first

	Stats Stats
}

// SaveState copies out the complete mutable state.
func (a *Allocator) SaveState() *State {
	s := &State{StaticBrk: a.staticBrk, HeapBase: a.heapBase, HeapBrk: a.heapBrk, Stats: a.stats}
	// The dense page slice is already in ascending Base order, preserving
	// the sorted-by-Base layout the map-backed allocator serialized.
	// The allocation bits are saved one []bool per page, the form
	// snapshots have always carried.
	for i := range a.pages {
		pg := &a.pages[i]
		al := make([]bool, PageWords>>classShift(pg.class))
		for slot := range al {
			al[slot] = a.allocated(pg, slot)
		}
		s.Pages = append(s.Pages, PageState{Base: pg.base, Class: pg.class, Allocated: al})
	}
	// A saved list holds the cursor's remaining slots at its bottom,
	// highest address first, so that popping it hands out the allocator's
	// own order: freed objects first, then the fresh slots upward.
	s.FreeLists = make([][]word.Addr, numClasses)
	for c := range a.freeLists {
		f, size := a.fresh[c], word.Addr(1)<<classShift(int8(c))
		fl := make([]word.Addr, 0, int((f.end-f.next)/size)+len(a.freeLists[c]))
		for p := f.end; p > f.next; {
			p -= size
			fl = append(fl, p)
		}
		s.FreeLists[c] = append(fl, a.freeLists[c]...)
	}
	return s
}

// RestoreState overwrites the allocator with the saved state. The static
// region layout is a deterministic function of the configuration, so a
// mismatch in StaticBrk means the restore target was built differently —
// that is a bug worth failing loudly on, not patching over.
func (a *Allocator) RestoreState(s *State) {
	if a.staticBrk != s.StaticBrk {
		panic("alloc: RestoreState static-region mismatch (different Config?)")
	}
	a.heapBase = s.HeapBase
	a.heapBrk = s.HeapBrk
	a.stats = s.Stats
	// Pages are claimed contiguously from HeapBase, so the saved pages,
	// sorted by Base, are exactly pages 0, 1, 2, ...; rebuilding them in
	// that order gives each the same first bit it had when it was claimed.
	a.pages, a.bits = nil, nil
	for i := range s.Pages {
		ps := &s.Pages[i]
		if ps.Base != s.HeapBase+word.Addr(i)<<pageShift {
			panic("alloc: RestoreState heap pages are not contiguous from the heap base")
		}
		a.pages = append(a.pages, page{base: ps.Base, class: ps.Class, bit: a.claimBits(ps.Class)})
		pg := &a.pages[i]
		for slot, al := range ps.Allocated {
			a.setAllocated(pg, slot, al)
		}
	}
	if s.HeapBase != 0 && len(a.pages) != int((uint64(s.HeapBrk)-uint64(s.HeapBase))>>pageShift) {
		panic("alloc: RestoreState page count does not match the heap extent")
	}
	// Every saved slot goes back on the free list and the cursors start
	// empty: the list pops in the order the cursor would have bumped, and
	// TryAlloc zeroes what it pops like any reused slot.
	a.fresh = [numClasses]struct{ next, end word.Addr }{}
	a.freeLists = [numClasses][]word.Addr{}
	for c, fl := range s.FreeLists {
		a.freeLists[c] = append([]word.Addr(nil), fl...)
	}
}
