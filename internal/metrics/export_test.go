package metrics

import (
	"strconv"
)

// Test-only API: used by this package's tests, nowhere else.

// BucketLabel renders bucket i of an n-bucket histogram as a human
// label: the lower bound for interior buckets, "2^k+" for the overflow.
func BucketLabel(i, n int) string {
	label := strconv.FormatUint(uint64(1)<<uint(i), 10)
	if i < n-1 {
		return label
	}
	return label + "+"
}

// PhaseCycles reports the cycles attributed to ph.
func (tp *ThreadProfile) PhaseCycles(ph Phase) uint64 { return tp.phases[ph] }

// Total reports all cycles attributed to this thread.
func (tp *ThreadProfile) Total() uint64 {
	var s uint64
	for _, v := range tp.phases {
		s += v
	}
	return s
}
