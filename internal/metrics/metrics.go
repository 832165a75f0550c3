// Package metrics is the simulator's observability layer: a registry of
// named counters, gauges and log-scale histograms that the mem, alloc,
// sched and core layers record into, plus a virtual-cycle profiler
// (profile.go) that attributes simulated cycles to phases and program
// blocks.
//
// The design constraint is zero allocation on the hot path. Handles are
// obtained once (at wiring time) from the Registry; recording is a plain
// array increment indexed by simulated thread id. The simulation is
// single-goroutine (concurrency is scheduler interleaving, not Go
// parallelism), so per-thread lanes exist for attribution and cheap
// merge-on-read, not for synchronization.
package metrics

// MaxThreads mirrors mem.MaxThreads: per-thread metric lanes are fixed
// arrays so recording never allocates or bounds-checks a map.
const MaxThreads = 64

// TimeHistBuckets is the bucket count used for virtual-time histograms
// (op latency and similar). Log2 buckets: bucket 31 holds everything at
// or above 2^31 cycles, far beyond any single simulated operation.
const TimeHistBuckets = 32

// Counter is a monotonically increasing per-thread counter. Value()
// merges the lanes.
type Counter struct {
	name  string
	lanes [MaxThreads]uint64
}

// Name reports the registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one to tid's lane.
func (c *Counter) Inc(tid int) { c.lanes[tid]++ }

// Add adds d to tid's lane.
func (c *Counter) Add(tid int, d uint64) { c.lanes[tid] += d }

// Lane reports tid's lane without merging.
func (c *Counter) Lane(tid int) uint64 { return c.lanes[tid] }

// Value merges all lanes.
func (c *Counter) Value() uint64 {
	var s uint64
	for i := range c.lanes {
		s += c.lanes[i]
	}
	return s
}

// Reset zeroes every lane.
func (c *Counter) Reset() { c.lanes = [MaxThreads]uint64{} }

// Gauge is a signed up/down quantity (live objects, pages in use).
// Gauges are not per-thread: they track global state, and unlike
// counters they survive Registry.Reset so a measurement window observes
// the true level, not the delta.
type Gauge struct {
	name string
	v    int64
}

// Name reports the registered name.
func (g *Gauge) Name() string { return g.name }

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v += d }

// Value reports the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a log2-bucketed distribution with per-thread lanes.
// Bucket i holds values v with floor(log2(v)) == i, except the last
// bucket which absorbs the overflow; values 0 and 1 land in bucket 0.
// This matches the split-length histogram the core layer has always
// reported (8 buckets: 1, 2, 4, ... 64, 128+).
type Histogram struct {
	name    string
	buckets int
	lanes   []uint64 // MaxThreads × buckets, row-major by tid
	counts  [MaxThreads]uint64
	sums    [MaxThreads]uint64
}

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

// Name reports the registered name.
func (h *Histogram) Name() string { return h.name }

// Buckets reports the bucket count.
func (h *Histogram) Buckets() int { return h.buckets }

// Observe records value v for thread tid.
func (h *Histogram) Observe(tid int, v uint64) {
	h.lanes[tid*h.buckets+BucketOf(v, h.buckets)]++
	h.counts[tid]++
	h.sums[tid] += v
}

// LaneBucket reports the count in bucket b of tid's lane.
func (h *Histogram) LaneBucket(tid, b int) uint64 {
	return h.lanes[tid*h.buckets+b]
}

// Bucket merges bucket b across all lanes.
func (h *Histogram) Bucket(b int) uint64 {
	var s uint64
	for tid := 0; tid < MaxThreads; tid++ {
		s += h.lanes[tid*h.buckets+b]
	}
	return s
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	var s uint64
	for i := range h.counts {
		s += h.counts[i]
	}
	return s
}

// Sum reports the total of all observed values.
func (h *Histogram) Sum() uint64 {
	var s uint64
	for i := range h.sums {
		s += h.sums[i]
	}
	return s
}

// Reset zeroes every lane.
func (h *Histogram) Reset() {
	for i := range h.lanes {
		h.lanes[i] = 0
	}
	h.counts = [MaxThreads]uint64{}
	h.sums = [MaxThreads]uint64{}
}

// Registry is the namespace all layers share. Handle lookups are
// get-or-create and idempotent: asking twice for the same name returns
// the same handle, so mem and bench can both hold "mem.commits" without
// coordination. Lookups happen at wiring time, never on the hot path.
type Registry struct {
	index    map[string]interface{}
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]interface{}{}}
}

// Counter returns the counter registered under name, creating it on
// first use. Panics if name is already registered as another type:
// that is a wiring bug, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	if m, ok := r.index[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic("metrics: " + name + " registered with a different type")
		}
		return c
	}
	c := &Counter{name: name}
	r.index[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if m, ok := r.index[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic("metrics: " + name + " registered with a different type")
		}
		return g
	}
	g := &Gauge{name: name}
	r.index[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket count on first use. Panics on a bucket-count
// mismatch with an existing registration.
func (r *Registry) Histogram(name string, buckets int) *Histogram {
	if m, ok := r.index[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic("metrics: " + name + " registered with a different type")
		}
		if h.buckets != buckets {
			panic("metrics: " + name + " registered with different bucket count")
		}
		return h
	}
	if buckets < 1 {
		buckets = 1
	}
	h := &Histogram{name: name, buckets: buckets, lanes: make([]uint64, MaxThreads*buckets)}
	r.index[name] = h
	r.hists = append(r.hists, h)
	return h
}

// Reset zeroes all counters and histograms. Gauges are deliberately
// preserved: they describe current state (live objects, pages), which
// a measurement-window reset must not erase.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// HistSnapshot is a histogram's merged view inside a Snapshot.
type HistSnapshot struct {
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every registered metric, in a
// form that serializes deterministically (Go's encoding/json sorts map
// keys).
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current state of every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	for _, c := range r.counters {
		s.Counters[c.name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = map[string]int64{}
		for _, g := range r.gauges {
			s.Gauges[g.name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = map[string]HistSnapshot{}
		for _, h := range r.hists {
			hs := HistSnapshot{Buckets: make([]uint64, h.buckets), Count: h.Count(), Sum: h.Sum()}
			for b := 0; b < h.buckets; b++ {
				hs.Buckets[b] = h.Bucket(b)
			}
			s.Histograms[h.name] = hs
		}
	}
	return s
}
