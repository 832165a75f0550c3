package main

// The host's speed drifts by tens of percent over tens of seconds on a
// shared machine: other tenants contend for the same cores and caches.
// More work per run cannot average that out, because the drift is slower
// than a run. So an untraced run times a small fixed computation after
// every simulation run, and reports its times scaled to the speed at
// which that computation takes refNominal. The reference runs no code of
// the repository, so a faster simulator still reads faster; it sorts and
// hashes, like the simulator's own mix of branchy code and map lookups,
// and on the host it was tuned on it moved with the simulator at a
// correlation of 0.97.

import (
	"sort"
	"time"
)

// refNominal is the reference's median time on the 2-vCPU Xeon host the
// bounds in BENCHMARK.json were measured on, so normalized times read
// close to wall-clock times there.
const refNominal = 1500 * time.Microsecond

const refSize = 1 << 14

type reference struct {
	src, ints []int
	m         map[uint64]uint64
}

func newReference() *reference {
	r := &reference{src: make([]int, refSize), ints: make([]int, refSize), m: make(map[uint64]uint64, refSize)}
	x := uint64(1)
	for i := range r.src {
		x = x*6364136223846793005 + 1442695040888963407
		r.src[i] = int(x >> 1)
	}
	return r
}

// run times one reference chunk. It allocates nothing, so it neither
// triggers nor slows the garbage collector.
func (r *reference) run() time.Duration {
	start := time.Now()
	copy(r.ints, r.src)
	sort.Ints(r.ints)
	clear(r.m)
	for i, v := range r.ints {
		r.m[uint64(v)] = uint64(i)
	}
	return time.Since(start)
}
