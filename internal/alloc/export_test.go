package alloc

import (
	"stacktrack/internal/word"
)

// Test-only API: used by this package's tests, nowhere else.

// SizeOf returns the usable size in words of allocated object p.
func (a *Allocator) SizeOf(p word.Addr) (int, bool) {
	pg, slot, ok := a.locate(p)
	if !ok || !a.allocated(pg, slot) {
		return 0, false
	}
	if pg.base+word.Addr(slot<<classShift(pg.class)) != p {
		return 0, false
	}
	return 1 << classShift(pg.class), true
}
