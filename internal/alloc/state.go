// Snapshot-state support (internal/snap): the allocator's mutable state is
// the static/heap break points, the per-page allocation bitmaps, and the
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
	for i := range a.pages {
		pg := &a.pages[i]
		s.Pages = append(s.Pages, PageState{
			Base:      pg.base,
			Class:     pg.class,
			Allocated: append([]bool(nil), pg.allocated...),
		})
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
	n := 0
	if s.HeapBase != 0 {
		n = int((uint64(s.HeapBrk) - uint64(s.HeapBase)) >> pageShift)
	}
	a.pages = make([]page, n)
	for i := range s.Pages {
		ps := &s.Pages[i]
		a.pages[(uint64(ps.Base)-uint64(s.HeapBase))>>pageShift] = page{
			base:      ps.Base,
			class:     ps.Class,
			allocated: append([]bool(nil), ps.Allocated...),
		}
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
