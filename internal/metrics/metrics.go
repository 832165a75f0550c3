// Package metrics is the simulator's observability vocabulary: a
// lane-free log2 Histogram, the name-keyed Snapshot a run reports, and a
// virtual-cycle profiler (profile.go) that attributes simulated cycles to
// phases and program blocks.
//
// Counting itself lives in each layer's typed Stats struct (mem, alloc,
// sched, core): the hot path bumps a plain field, with no handle to load
// and no lane to index. The simulation is single-goroutine (concurrency
// is scheduler interleaving, not Go parallelism), so a plain field needs
// no synchronization. internal/bench is the one place that knows the
// metric names; it builds a Snapshot from those structs at the end of the
// measurement window.
package metrics

// TimeHistBuckets is the bucket count of a Histogram. Log2 buckets:
// bucket 31 holds everything at or above 2^31 cycles, far beyond any
// single simulated operation.
const TimeHistBuckets = 32

// BucketOf maps a value to its bucket index in an n-bucket log2
// histogram: floor(log2(v)) capped at n-1, with v <= 1 in bucket 0.
func BucketOf(v uint64, n int) int {
	b := 0
	for v > 1 && b < n-1 {
		v >>= 1
		b++
	}
	return b
}

// Histogram is a log2-bucketed distribution of virtual-time values (op
// latency in cycles). Bucket i holds values v with floor(log2(v)) == i,
// except the last bucket, which absorbs the overflow; values 0 and 1
// land in bucket 0. It is a plain value: assignment copies it and the
// zero value is empty.
type Histogram struct {
	Buckets [TimeHistBuckets]uint64
	Count   uint64
	Sum     uint64
}

// Observe records value v.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[BucketOf(v, TimeHistBuckets)]++
	h.Count++
	h.Sum += v
}

// HistSnapshot is one histogram inside a Snapshot.
type HistSnapshot struct {
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
}

// Snapshot is a run's metrics keyed by name, in a form that serializes
// deterministically (Go's encoding/json sorts map keys). Gauges are
// levels (live objects, pages in use) rather than counts since the
// measurement-window reset.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}
