package mem

import (
	"stacktrack/internal/word"
)

// Test-only API: used by this package's tests, nowhere else.

// AddPlain performs a non-transactional fetch-and-add, returning the new
// value and whether the access missed.
func (m *Memory) AddPlain(tid int, a word.Addr, delta uint64) (uint64, bool) {
	m.check(a)
	m.c.plainReads.Inc(tid)
	m.c.plainWrites.Inc(tid)
	l := word.Line(a)
	if m.liveTx > 0 {
		m.doomLineConflicts(tid, l)
	}
	m.words[a] += delta
	v, miss := m.words[a], m.writeTouch(tid, l)
	if m.obs != nil {
		m.obs.SyncRMW(tid, a, true)
	}
	return v, miss
}
