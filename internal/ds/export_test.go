package ds

import (
	"stacktrack/internal/mem"
	"stacktrack/internal/word"
)

// Test-only API: used by this package's tests, nowhere else.

// Chains returns each non-empty bucket's unmarked keys in chain order,
// outside the simulation (test support).
func (h *HashTable) Chains(m *mem.Memory, limit int) [][]uint64 {
	var out [][]uint64
	for i := 0; i < h.nBuckets; i++ {
		if ks := Walk(m, h.buckets+word.Addr(i), limit); len(ks) > 0 {
			out = append(out, ks)
		}
	}
	return out
}

// WalkLevel returns the unmarked keys at the given level, outside the
// simulation.
func (s *SkipList) WalkLevel(m *mem.Memory, level, limit int) []uint64 {
	var keys []uint64
	walkUnmarked(m, nextAddr(s.head, level), skOffNxt+word.Addr(level), skOffKey, limit,
		func(k uint64) { keys = append(keys, k) })
	return keys
}
