// Package workload generates the benchmark workloads of the paper's §6:
// key-value operation mixes with a given mutation percentage over a key
// range, and enqueue/dequeue/peek mixes for the queue. All randomness is
// seeded, so a workload is reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"stacktrack/internal/rng"
)

// SetMix describes a set-structure workload (list, skip list, hash).
type SetMix struct {
	// KeyRange draws keys uniformly from [1, KeyRange].
	KeyRange uint64
	// MutatePct is the percentage of operations that mutate, split evenly
	// between inserts and deletes (the paper uses 20%).
	MutatePct int
}

// SetOp is one generated set operation.
type SetOp uint8

// Set operation kinds.
const (
	SetContains SetOp = iota
	SetInsert
	SetDelete
)

// Next draws the next operation and key.
func (m SetMix) Next(r *rng.Rand) (SetOp, uint64) {
	key := 1 + r.Uint64n(m.KeyRange)
	p := r.Intn(100)
	switch {
	case p < m.MutatePct/2:
		return SetInsert, key
	case p < m.MutatePct:
		return SetDelete, key
	default:
		return SetContains, key
	}
}

// QueueMix describes the queue workload. The paper's "20% mutations" is
// interpreted as 10% enqueues, 10% dequeues, 80% peeks (see DESIGN.md §5).
type QueueMix struct {
	MutatePct int
	ValRange  uint64
}

// QueueOp is one generated queue operation.
type QueueOp uint8

// Queue operation kinds.
const (
	QueuePeek QueueOp = iota
	QueueEnqueue
	QueueDequeue
)

// Next draws the next queue operation and value.
func (m QueueMix) Next(r *rng.Rand) (QueueOp, uint64) {
	p := r.Intn(100)
	switch {
	case p < m.MutatePct/2:
		return QueueEnqueue, 1 + r.Uint64n(m.ValRange)
	case p < m.MutatePct:
		return QueueDequeue, 0
	default:
		return QueuePeek, 0
	}
}

// sampleBufs is SampleKeys' scratch. A 100K-key draw needs 1.6 MB of it;
// reusing it keeps that out of the garbage that sets how often the GC runs.
type sampleBufs struct {
	chosen     []uint64
	head, next []int32
}

var sampleScratch = sync.Pool{New: func() any { return new(sampleBufs) }}

// SampleKeys deterministically draws n distinct keys from [1, keyRange] and
// returns them sorted ascending — the prefill set. It panics if n exceeds
// the key range (a configuration bug).
//
// The draw is Floyd's algorithm. The chosen set is kept in n buckets, key
// k in bucket ⌊(k−1)·n/keyRange⌋, chained through index arrays: bucket
// order is key order, so reading the buckets in turn, each sorted, yields
// the sorted sample in O(n) expected time and O(n) memory for any range.
func SampleKeys(seed uint64, n int, keyRange uint64) []uint64 {
	if uint64(n) > keyRange {
		panic(fmt.Sprintf("workload: cannot sample %d distinct keys from range %d", n, keyRange))
	}
	bucket := func(k uint64) int {
		hi, lo := bits.Mul64(k-1, uint64(n))
		q, _ := bits.Div64(hi, lo, keyRange)
		return int(q)
	}
	sc := sampleScratch.Get().(*sampleBufs)
	defer sampleScratch.Put(sc)
	sc.chosen = slices.Grow(sc.chosen[:0], n)[:n] // chosen[i] is the i-th key drawn
	sc.head = slices.Grow(sc.head[:0], n)[:n]     // bucket → 1 + index of its last key, 0 if empty
	sc.next = slices.Grow(sc.next[:0], n)[:n]     // key index → 1 + index of the bucket's previous key
	chosen, head, next := sc.chosen, sc.head, sc.next
	clear(head) // chosen[i] and next[i] are written before they are read
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		j := keyRange - uint64(n-i) + 1
		k := 1 + r.Uint64n(j)
		b := bucket(k)
		for e := head[b]; e != 0; e = next[e-1] {
			if chosen[e-1] == k {
				k, b = j, bucket(j)
				break
			}
		}
		chosen[i], next[i], head[b] = k, head[b], int32(i+1)
	}
	keys := make([]uint64, 0, n)
	for _, e := range head {
		start := len(keys)
		for ; e != 0; e = next[e-1] {
			keys = append(keys, chosen[e-1])
		}
		slices.Sort(keys[start:])
	}
	return keys
}
