package alloc

import "stacktrack/internal/word"

// Observer receives object-lifetime notifications from the allocator.
// Observation only: implementations must not call back into the allocator
// or the memory in ways that change simulated state. All hooks fire after
// the allocator's own bookkeeping for the event has completed, except
// ObjectFreeBegin, which fires before the free's poison stores so the
// observer can tell them apart from genuine use-after-free accesses.
type Observer interface {
	// ObjectAlloc fires when tid allocates an object at p. requested is
	// the caller's size; size is the rounded-up class size, so words
	// [p+requested, p+size) are slack the program must never touch.
	ObjectAlloc(tid int, p word.Addr, requested, size int)
	// ObjectFreeBegin fires before Free's poison stores.
	ObjectFreeBegin(tid int, p word.Addr, size int)
	// ObjectFreeEnd fires after Free's poison stores and free-list push.
	ObjectFreeEnd(tid int, p word.Addr, size int)
	// ObjectUnalloc fires when a transactional allocation is rolled back.
	ObjectUnalloc(p word.Addr, size int)
}

// SetObserver installs o (nil detaches). The observer sees events from
// this call onward; it does not learn about pre-existing objects.
func (a *Allocator) SetObserver(o Observer) { a.obs = o }

// HeapRange returns the current heap extent [lo, hi). Both bounds are 0
// until the first heap allocation freezes the static region.
func (a *Allocator) HeapRange() (lo, hi word.Addr) { return a.heapBase, a.heapBrk }

// SlotRange resolves any heap address — interior pointers included, and
// regardless of whether the slot is currently allocated — to its slot's
// base and class size. This is the provenance variant of ObjectStart: it
// still answers for freed slots, which is exactly when a use-after-free
// report needs it.
func (a *Allocator) SlotRange(p word.Addr) (base word.Addr, size int, allocated, ok bool) {
	pg, slot, ok := a.locate(p)
	if !ok {
		return 0, 0, false, false
	}
	size = 1 << classShift(pg.class)
	return pg.base + word.Addr(slot*size), size, pg.allocated[slot], true
}

// ForEachSlot visits every slot of every claimed heap page (iteration
// order is unspecified). It exists so shadow state can be rebuilt from a
// restored snapshot.
func (a *Allocator) ForEachSlot(f func(base word.Addr, size int, allocated bool)) {
	for _, pg := range a.pages {
		size := 1 << classShift(pg.class)
		for slot, al := range pg.allocated {
			f(pg.base+word.Addr(slot*size), size, al)
		}
	}
}
