package core

import (
	"stacktrack/internal/metrics"
)

// Test-only API: used by this package's tests, nowhere else.

// HistBucket returns the SegLenHist index for a segment of n blocks.
// It is definitionally metrics.BucketOf with 8 buckets (pinned by a
// test), so the view over the registry histogram reproduces the
// original array exactly.
func HistBucket(n int) int {
	return metrics.BucketOf(uint64(n), 8)
}

// ThreadStats returns a snapshot of thread tid's StackTrack counters,
// assembled from the metric lanes.
func (st *StackTrack) ThreadStats(tid int) *Stats {
	c := &st.c
	s := &Stats{
		Segments:      c.segments.Lane(tid),
		SegmentBlocks: c.segmentBlocks.Lane(tid),
		OpsFast:       c.opsFast.Lane(tid),
		OpsSlow:       c.opsSlow.Lane(tid),
		Scans:         c.scans.Lane(tid),
		ScanRestarts:  c.scanRestarts.Lane(tid),
		ScannedWords:  c.scannedWords.Lane(tid),
		ScannedDepth:  c.scannedDepth.Lane(tid),
		ElidedWords:   c.elidedWords.Lane(tid),
		ScanTargets:   c.scanTargets.Lane(tid),
		Frees:         c.frees.Lane(tid),
		Freed:         c.freed.Lane(tid),
		FalseHeld:     c.falseHeld.Lane(tid),
	}
	for i := range s.SegLenHist {
		s.SegLenHist[i] = c.segLenHist.LaneBucket(tid, i)
	}
	return s
}
