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
