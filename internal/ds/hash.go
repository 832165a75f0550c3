package ds

// A lock-free hash table: a fixed array of buckets, each the head of a
// Harris list (the paper builds its hash table from the Harris list the
// same way). Low contention: the hash spreads threads across buckets.

import (
	"fmt"
	"slices"

	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// HashTable is the bucket array plus the compiled list operations
// parameterized by the bucket hash.
type HashTable struct {
	buckets  word.Addr
	nBuckets int
	shift    uint

	OpContains *prog.Op
	OpInsert   *prog.Op
	OpDelete   *prog.Op
}

// NewHashTable allocates nBuckets head words (nBuckets must be a power of
// two) and compiles the operations.
func NewHashTable(a *alloc.Allocator, nBuckets int) *HashTable {
	if nBuckets <= 0 || nBuckets&(nBuckets-1) != 0 {
		panic(fmt.Sprintf("ds: hash bucket count %d is not a power of two", nBuckets))
	}
	shift := uint(64)
	for n := nBuckets; n > 1; n >>= 1 {
		shift--
	}
	h := &HashTable{buckets: a.Static(nBuckets), nBuckets: nBuckets, shift: shift}
	headOf := func(t *sched.Thread, f sched.Frame) word.Addr {
		return h.bucketOf(t.Reg(prog.RegArg1))
	}
	h.OpContains = buildListContains(OpContains, "hash.Contains", headOf)
	h.OpInsert = buildListInsert(OpInsert, "hash.Insert", headOf)
	h.OpDelete = buildListDelete(OpDelete, "hash.Delete", headOf)
	return h
}

// bucketOf hashes a key to its bucket head address (Fibonacci hashing).
func (h *HashTable) bucketOf(key uint64) word.Addr {
	idx := (key * 11400714819323198485) >> h.shift
	return h.buckets + word.Addr(idx)
}

// Buckets returns the bucket count.
func (h *HashTable) Buckets() int { return h.nBuckets }

// --- Setup and validation helpers -------------------------------------------

// Seed inserts the keys at setup time, bypassing the simulation. Buckets
// are filled in index order so seeded memory layout is deterministic.
func (h *HashTable) Seed(a *alloc.Allocator, m *mem.Memory, keys []uint64, val uint64) {
	perBucket := make([][]uint64, h.nBuckets)
	for _, k := range keys {
		i := int(h.bucketOf(k) - h.buckets)
		perBucket[i] = append(perBucket[i], k)
	}
	for i, ks := range perBucket {
		if len(ks) == 0 {
			continue
		}
		slices.Sort(ks)
		SeedChain(a, m, h.buckets+word.Addr(i), ks, val)
	}
}

// Count walks every bucket outside the simulation and returns the number of
// unmarked nodes.
func (h *HashTable) Count(m *mem.Memory, limit int) int {
	total := 0
	for i := 0; i < h.nBuckets; i++ {
		total += WalkLen(m, h.buckets+word.Addr(i), limit)
	}
	return total
}
