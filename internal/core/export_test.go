package core

import (
	"stacktrack/internal/metrics"
)

// Test-only API: used by this package's tests, nowhere else.

// HistBucket returns the SegLenHist index for a segment of n blocks.
// It is definitionally metrics.BucketOf with 8 buckets (pinned by a
// test), so SegLenHist keeps the original array's bucket boundaries.
func HistBucket(n int) int {
	return metrics.BucketOf(uint64(n), 8)
}
