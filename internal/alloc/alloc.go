// Package alloc implements a slab allocator over the simulated memory. It
// gives the simulation what Go itself cannot: explicit free with observable
// use-after-free semantics.
//
// # Layout
//
// The word array is split into a static region (bump-allocated at setup for
// globals, thread stacks, and register files; never freed) and a heap of
// fixed-size pages. Each heap page serves a single size class, so the start
// address of the object containing any interior pointer is computable in
// O(1) — this implements the paper's §5.5 "range query into the allocation
// data structure" that lets the StackTrack scanner recognize pointers into
// the middle of arrays and structs.
//
// # Safety instrumentation
//
// Freed objects are filled with word.Poison using plain (strongly isolated)
// stores, so any transaction still holding the object's lines in its data
// set is doomed — the same property a real free+reuse would eventually
// trigger — and any non-transactional reader observes the poison pattern,
// which the validation layer reports as a use-after-free. Double frees and
// frees of non-heap or unallocated addresses panic: they are simulation
// bugs, not recoverable program errors.
package alloc

import (
	"fmt"
	"math/bits"

	"stacktrack/internal/mem"
	"stacktrack/internal/metrics"
	"stacktrack/internal/word"
)

const (
	// PageWords is the heap page size in words (64 cache lines).
	PageWords = 512
	pageShift = 9
)

// Class c holds objects of 2<<c words, 2 to PageWords. AllocAlign divides
// every class, keeping bit 0 of object addresses free for pointer marking.
// Every size is a power of two, so finding a class and a slot are shifts.
const numClasses = pageShift

// classShift is log2 of class c's object size in words.
func classShift(c int8) uint { return uint(c) + 1 }

// classFor returns the smallest class holding n words, or -1 if none does.
func classFor(n int) int8 {
	if n <= 2 {
		return 0
	}
	if c := bits.Len(uint(n-1)) - 1; c < numClasses {
		return int8(c)
	}
	return -1
}

// Stats counts allocator activity. It is a read-only view assembled
// from the metrics registry's gauges: allocator quantities are levels,
// not monotonic counts (Unalloc rolls an allocation back), and gauges
// survive the harness's measurement-window reset so live-object
// accounting stays exact.
type Stats struct {
	Allocs      uint64 // successful allocations
	Frees       uint64 // successful frees
	PagesInUse  uint64 // heap pages handed out
	LiveObjects uint64 // currently allocated objects
	LiveWords   uint64 // words in currently allocated objects
}

// allocGauges holds the allocator's metric handles.
type allocGauges struct {
	allocs      *metrics.Gauge
	frees       *metrics.Gauge
	pagesInUse  *metrics.Gauge
	liveObjects *metrics.Gauge
	liveWords   *metrics.Gauge
}

func newAllocGauges(r *metrics.Registry) allocGauges {
	return allocGauges{
		allocs:      r.Gauge("alloc.allocs"),
		frees:       r.Gauge("alloc.frees"),
		pagesInUse:  r.Gauge("alloc.pages_in_use"),
		liveObjects: r.Gauge("alloc.live_objects"),
		liveWords:   r.Gauge("alloc.live_words"),
	}
}

type page struct {
	base      word.Addr
	class     int8
	allocated []bool // per-slot allocation bit
}

// Allocator manages the simulated memory's static region and heap.
type Allocator struct {
	m *mem.Memory

	staticBrk word.Addr // next free static word (grows up)
	heapBase  word.Addr // first heap word (fixed once heap is used)
	heapBrk   word.Addr // next unclaimed heap page (grows up)

	// pages is dense page-indexed metadata: pages[i] covers the page at
	// heapBase + i*PageWords. Pages are claimed contiguously from
	// heapBase, so every page number in [heapBase, heapBrk) exists and
	// locate is pure arithmetic plus one slice index — no map hashing on
	// the allocation/free/scan hot paths.
	pages []page
	// fresh[c] is class c's bump cursor: its newest page's slots from
	// next to end have never been handed out. freeLists[c] is a LIFO
	// stack of the class's freed and Unalloc'd objects, which TryAlloc
	// pops before it bumps the cursor.
	fresh     [numClasses]struct{ next, end word.Addr }
	freeLists [numClasses][]word.Addr

	g   allocGauges
	obs Observer
}

// New creates an allocator covering all of m. Address 0 is reserved so the
// null pointer is never a valid object.
func New(m *mem.Memory) *Allocator {
	a := &Allocator{
		m:         m,
		staticBrk: word.Addr(word.LineWords), // skip line 0: null + red zone
		g:         newAllocGauges(m.Metrics()),
	}
	return a
}

// Memory returns the underlying simulated memory.
func (a *Allocator) Memory() *mem.Memory { return a.m }

// Stats returns a snapshot of allocator statistics.
func (a *Allocator) Stats() Stats {
	return Stats{
		Allocs:      uint64(a.g.allocs.Value()),
		Frees:       uint64(a.g.frees.Value()),
		PagesInUse:  uint64(a.g.pagesInUse.Value()),
		LiveObjects: uint64(a.g.liveObjects.Value()),
		LiveWords:   uint64(a.g.liveWords.Value()),
	}
}

// Static bump-allocates n words that are never freed (globals, stacks,
// register files). It must not be interleaved with heap growth: all static
// allocation happens during setup, before the first Alloc. The region is
// line-aligned so static structures of different threads never false-share.
func (a *Allocator) Static(n int) word.Addr {
	if n <= 0 {
		panic("alloc: Static with non-positive size")
	}
	if a.heapBase != 0 {
		panic("alloc: Static after heap initialization")
	}
	// Align to a cache line to keep per-thread static state isolated.
	brk := (uint64(a.staticBrk) + word.LineWords - 1) &^ (word.LineWords - 1)
	end := brk + uint64(n)
	if end > uint64(a.m.Size()) {
		panic(fmt.Sprintf("alloc: static region exhausted (%d words requested)", n))
	}
	a.staticBrk = word.Addr(end)
	return word.Addr(brk)
}

// freezeStatic fixes the heap base at the first page boundary above the
// static region.
func (a *Allocator) freezeStatic() {
	base := (uint64(a.staticBrk) + PageWords - 1) &^ (PageWords - 1)
	a.heapBase = word.Addr(base)
	a.heapBrk = a.heapBase
}

// growClass claims a fresh page for class c and points its cursor at it.
func (a *Allocator) growClass(c int8) bool {
	if a.heapBase == 0 {
		a.freezeStatic()
	}
	if uint64(a.heapBrk)+PageWords > uint64(a.m.Size()) {
		return false
	}
	base := a.heapBrk
	a.heapBrk += PageWords
	// base always equals the old heapBrk, so append keeps pages dense in
	// page-number order.
	a.pages = append(a.pages, page{base: base, class: c, allocated: make([]bool, PageWords>>classShift(c))})
	a.g.pagesInUse.Add(1)
	a.fresh[c].next, a.fresh[c].end = base, base+PageWords
	return true
}

// Alloc returns a zeroed object of at least n words, or panics with a
// simulated-OOM message if the heap is exhausted (size the memory for the
// workload, or reclaim). tid attributes the access costs.
func (a *Allocator) Alloc(tid int, n int) word.Addr {
	p, err := a.TryAlloc(tid, n)
	if err != nil {
		panic(err)
	}
	return p
}

// TryAlloc is Alloc returning an error instead of panicking, for callers
// that can degrade gracefully (e.g. the leak scheme under memory pressure).
func (a *Allocator) TryAlloc(tid int, n int) (word.Addr, error) {
	c := classFor(n)
	if c < 0 {
		return 0, fmt.Errorf("alloc: object of %d words exceeds max class %d", n, PageWords)
	}
	shift := classShift(c)
	size := 1 << shift
	var p word.Addr
	if fl := a.freeLists[c]; len(fl) > 0 {
		p = fl[len(fl)-1]
		a.freeLists[c] = fl[:len(fl)-1]
	} else {
		f := &a.fresh[c]
		if f.next == f.end && !a.growClass(c) {
			return 0, fmt.Errorf("alloc: simulated heap exhausted (%d pages in use); increase memory or enable reclamation", uint64(a.g.pagesInUse.Value()))
		}
		p = f.next
		f.next += word.Addr(size)
	}

	pg := &a.pages[(uint64(p)-uint64(a.heapBase))>>pageShift]
	slot := int(p-pg.base) >> shift
	if pg.allocated[slot] {
		panic(fmt.Sprintf("alloc: free list corruption at %#x", uint64(p)))
	}
	pg.allocated[slot] = true

	a.m.Zero(p, size)
	a.g.allocs.Add(1)
	a.g.liveObjects.Add(1)
	a.g.liveWords.Add(int64(size))
	if a.obs != nil {
		a.obs.ObjectAlloc(tid, p, n, size)
	}
	return p, nil
}

// Free returns object p to its size class, poisoning its words with plain
// stores (dooming any transaction that still tracks them). It panics on
// double free or on a pointer that is not an allocated object's start.
func (a *Allocator) Free(tid int, p word.Addr) {
	pg, slot, ok := a.locate(p)
	if !ok {
		panic(fmt.Sprintf("alloc: Free of non-heap address %#x", uint64(p)))
	}
	size := 1 << classShift(pg.class)
	if pg.base+word.Addr(slot*size) != p {
		panic(fmt.Sprintf("alloc: Free of interior pointer %#x", uint64(p)))
	}
	if !pg.allocated[slot] {
		panic(fmt.Sprintf("alloc: double free of %#x", uint64(p)))
	}
	pg.allocated[slot] = false
	if a.obs != nil {
		a.obs.ObjectFreeBegin(tid, p, size)
	}
	for i := 0; i < size; i++ {
		a.m.WritePlain(tid, p+word.Addr(i), word.Poison)
	}
	a.freeLists[pg.class] = append(a.freeLists[pg.class], p)
	a.g.frees.Add(1)
	a.g.liveObjects.Add(-1)
	a.g.liveWords.Add(-int64(size))
	if a.obs != nil {
		a.obs.ObjectFreeEnd(tid, p, size)
	}
}

// Unalloc silently returns a never-published object to its free list with
// no poisoning and no coherence traffic. It exists for transactional
// allocation rollback: on real HTM, an aborted segment's malloc would have
// been undone invisibly. It panics on the same misuse as Free.
func (a *Allocator) Unalloc(p word.Addr) {
	pg, slot, ok := a.locate(p)
	if !ok {
		panic(fmt.Sprintf("alloc: Unalloc of non-heap address %#x", uint64(p)))
	}
	size := 1 << classShift(pg.class)
	if pg.base+word.Addr(slot*size) != p {
		panic(fmt.Sprintf("alloc: Unalloc of interior pointer %#x", uint64(p)))
	}
	if !pg.allocated[slot] {
		panic(fmt.Sprintf("alloc: Unalloc of free object %#x", uint64(p)))
	}
	pg.allocated[slot] = false
	for i := 0; i < size; i++ {
		a.m.Poke(p+word.Addr(i), word.Poison)
	}
	a.freeLists[pg.class] = append(a.freeLists[pg.class], p)
	a.g.allocs.Add(-1) // the allocation never happened, architecturally
	a.g.liveObjects.Add(-1)
	a.g.liveWords.Add(-int64(size))
	if a.obs != nil {
		a.obs.ObjectUnalloc(p, size)
	}
}

// locate maps an address to its heap page and slot. Every page in
// [heapBase, heapBrk) exists (pages are claimed contiguously), so the
// range check alone establishes the index is valid.
func (a *Allocator) locate(p word.Addr) (*page, int, bool) {
	if a.heapBase == 0 || p < a.heapBase || p >= a.heapBrk {
		return nil, 0, false
	}
	pg := &a.pages[(uint64(p)-uint64(a.heapBase))>>pageShift]
	return pg, int(p-pg.base) >> classShift(pg.class), true
}

// ObjectStart resolves any pointer into the heap — including interior
// pointers into arrays or structs — to the start of the allocated object
// containing it. It reports false for non-heap addresses and for slots that
// are currently free. This is the scanner's range query (§5.5).
func (a *Allocator) ObjectStart(p word.Addr) (word.Addr, bool) {
	pg, slot, ok := a.locate(p)
	if !ok || !pg.allocated[slot] {
		return 0, false
	}
	return pg.base + word.Addr(slot<<classShift(pg.class)), true
}

// IsAllocated reports whether p is the start of a currently allocated
// object.
func (a *Allocator) IsAllocated(p word.Addr) bool {
	pg, slot, ok := a.locate(p)
	return ok && pg.allocated[slot] && pg.base+word.Addr(slot<<classShift(pg.class)) == p
}
