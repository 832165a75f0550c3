// Package core implements the StackTrack framework of the paper: the split
// runtime that executes data-structure operations as a series of hardware
// transaction segments (Algorithm 2), the dynamic split-length predictor
// (§5.3), the FREE / SCAN_AND_FREE reclamation procedure with its
// scan-consistency protocol (Algorithm 1), and the software-only slow-path
// fallback with per-thread reference sets (Algorithm 5, §5.4).
package core

import (
	"fmt"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// Config tunes the StackTrack runtime. The zero value is replaced by
// Defaults.
type Config struct {
	// InitialLimit is the starting split length in basic blocks (§5.3
	// uses 50).
	InitialLimit int
	// MaxLimit caps how far the predictor may grow a segment.
	MaxLimit int
	// Streak is how many consecutive commits (aborts) a segment needs
	// before its limit is incremented (decremented); the paper uses 5.
	Streak int
	// MaxFree is the free-set size that triggers SCAN_AND_FREE
	// (Algorithm 1 line 3).
	MaxFree int
	// SlowFailThreshold is how many consecutive failures at a split
	// limit of one basic block force the segment onto the slow path.
	SlowFailThreshold int
	// ScanChunkWords bounds how many stack words one scheduler step of
	// the scanner inspects, so scans interleave with running threads and
	// the consistency-retry protocol is genuinely exercised.
	ScanChunkWords int
	// ForceSlowPct forces this percentage of operations to execute
	// entirely on the slow path (the paper's Figure 5 experiment).
	ForceSlowPct int
	// HashedScan selects the §5.2 free-procedure optimization: one pass
	// over all stacks building a hash set, instead of one pass per
	// pointer. See the ablation-scan experiment.
	HashedScan bool
	// Predictor selects the split-length policy: "additive" (the
	// paper's ±1, default) or "aimd" (halve on an abort streak,
	// increment on a commit streak — the faster-adapting variant the
	// paper's §7 suggests exploring).
	Predictor string
}

// Predictor policy names for Config.Predictor.
const (
	// PredictorAdditive is the paper's ±1 policy (the default).
	PredictorAdditive = "additive"
	// PredictorAIMD halves the limit on an abort streak.
	PredictorAIMD = "aimd"
)

// Defaults returns the paper's parameter choices.
func Defaults() Config {
	return Config{
		InitialLimit:      50,
		MaxLimit:          100,
		Streak:            5,
		MaxFree:           10,
		SlowFailThreshold: 10,
		ScanChunkWords:    64,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.InitialLimit <= 0 {
		c.InitialLimit = d.InitialLimit
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = d.MaxLimit
	}
	if c.Streak <= 0 {
		c.Streak = d.Streak
	}
	if c.MaxFree <= 0 {
		c.MaxFree = d.MaxFree
	}
	if c.SlowFailThreshold <= 0 {
		c.SlowFailThreshold = d.SlowFailThreshold
	}
	if c.ScanChunkWords <= 0 {
		c.ScanChunkWords = d.ScanChunkWords
	}
	return c
}

// Stats counts StackTrack events across all threads, feeding the paper's
// Figures 4 and 5 and the scan-statistics table. The runner and scanner
// increment the fields of the instance's own Stats directly.
type Stats struct {
	Segments      uint64 // committed split segments
	SegmentBlocks uint64 // basic blocks inside committed segments
	OpsFast       uint64 // operations completed entirely on the fast path
	OpsSlow       uint64 // operations that used the slow path
	Scans         uint64 // SCAN_AND_FREE invocations
	ScanRestarts  uint64 // per-thread inspection restarts (Alg. 1 line 27)
	ScannedWords  uint64 // stack/register/ref-set words inspected
	ScannedDepth  uint64 // stack words inspected (for avg stack depth)
	ElidedWords   uint64 // words skipped by the dataflow track mask
	ScanTargets   uint64 // (ptr, thread) inspections performed
	Frees         uint64 // objects handed to FREE
	Freed         uint64 // objects actually released to the allocator
	FalseHeld     uint64 // frees deferred because a reference was seen
	WastedCycles  uint64 // virtual cycles spent in segments that then aborted

	// SegLenHist buckets committed segment lengths by power of two:
	// [1], [2,3], [4,7], [8,15], ..., [128,∞) — the distribution behind
	// Figure 4's averages.
	SegLenHist [8]uint64
}

// HistLabel names a SegLenHist bucket.
func HistLabel(b int) string {
	switch {
	case b <= 0:
		return "1"
	case b >= 7:
		return "128+"
	default:
		lo := 1 << b
		return fmt.Sprintf("%d-%d", lo, 2*lo-1)
	}
}

// tstate is the per-thread StackTrack context (the paper's ctx).
type tstate struct {
	freeSet []word.Addr

	// limits[opID][splitIdx] is the split-length table; streaks track
	// consecutive commit/abort runs per segment (§5.3).
	limits       [][]int32
	commitStreak [][]int32
	abortStreak  [][]int32

	refsLen int // Go mirror of the slow-path reference-set length

	runner *Runner // the thread's operation runner, for retire interception

	// Scan scratch buffers, borrowed by a starting scan (stolen so an
	// overlapping scan — e.g. Drain's sync scan racing a paused one —
	// falls back to fresh allocations) and handed back when it ends.
	scanPtrs  []word.Addr
	scanFound []bool
	scanHeld  map[word.Addr]struct{}
}

// StackTrack is the framework instance shared by all threads of a run. It
// implements sched.Reclaimer; operations must execute under its Runner
// rather than the plain runner.
type StackTrack struct {
	cfg Config
	sc  *sched.Scheduler
	al  *alloc.Allocator

	// slowCount is the global slow-path counter (§5.4): scans consult the
	// per-thread reference sets whenever it is non-zero.
	slowCount int

	// masks holds the per-operation scan track masks (see elide.go); nil
	// means every word is scanned.
	masks map[int]*dataflow.TrackMask

	threads [64]*tstate

	stats Stats
}

// New creates a StackTrack instance over a scheduler and allocator.
func New(sc *sched.Scheduler, al *alloc.Allocator, cfg Config) *StackTrack {
	return &StackTrack{cfg: cfg.withDefaults(), sc: sc, al: al}
}

// Name implements sched.Reclaimer.
func (st *StackTrack) Name() string { return "StackTrack" }

// Attach implements sched.Reclaimer. StackTrack threads maintain their
// exposed stack pointer so scanners know how deep to look.
func (st *StackTrack) Attach(t *sched.Thread) {
	st.threads[t.ID] = &tstate{}
	t.TrackSP = true
}

func (st *StackTrack) state(t *sched.Thread) *tstate {
	ts := st.threads[t.ID]
	if ts == nil {
		panic(fmt.Sprintf("core: thread %d not attached", t.ID))
	}
	return ts
}

// Stats returns the instance's live event counters. Callers copy it to
// read and assign through it to reset. Predictor state is separate, so a
// reset between measurement phases keeps convergence.
func (st *StackTrack) Stats() *Stats { return &st.stats }

// AvgSegmentLimit reports the predictor's current average split length
// across all threads and segments (Figure 4's "average split lengths").
func (st *StackTrack) AvgSegmentLimit() float64 {
	var sum float64
	n := 0
	for _, ts := range st.threads {
		if ts == nil {
			continue
		}
		if a := ts.avgLimit(); a > 0 {
			sum += a
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BeginOp implements sched.Reclaimer: register in the activity array and
// bump the operation counter. The ordering fence is issued once, by the
// runner's SPLIT_INIT (Algorithm 2).
func (st *StackTrack) BeginOp(t *sched.Thread, opID int) {
	t.StorePlain(t.ActivityAddr(), uint64(opID)+1)
	t.StorePlain(t.OperCntAddr(), t.M.Peek(t.OperCntAddr())+1)
}

// EndOp implements sched.Reclaimer: deregister and bump the counter so
// in-flight scans of this thread stop retrying (Alg. 1 line 25).
func (st *StackTrack) EndOp(t *sched.Thread) {
	t.StorePlain(t.OperCntAddr(), t.M.Peek(t.OperCntAddr())+1)
	t.StorePlain(t.ActivityAddr(), 0)
}

// ProtectLoad implements sched.Reclaimer. StackTrack needs no per-load
// protection: visibility comes from the transaction's data set, so this is
// an ordinary (mode-dispatched) load — the whole point of the scheme.
func (st *StackTrack) ProtectLoad(t *sched.Thread, _ int, src word.Addr) uint64 {
	return t.Load(src)
}

// Protect implements sched.Reclaimer: StackTrack needs no extra guards —
// references are visible wherever they live (stack, registers, data sets).
func (st *StackTrack) Protect(*sched.Thread, int, word.Addr) {}

// Retire implements sched.Reclaimer. When called inside an active segment
// the node is parked on the runner until the segment — and with it the
// unlink — commits; were it enqueued directly, an abort would roll back the
// unlink while the node sat in the free set. Outside a transaction (slow
// path, plain phases) it enters the free set immediately.
func (st *StackTrack) Retire(t *sched.Thread, p word.Addr) {
	ts := st.state(t)
	st.stats.Frees++
	if ts.runner != nil && ts.runner.inTx {
		ts.runner.retireInTx(p)
		return
	}
	ts.freeSet = append(ts.freeSet, p)
}

// NeedScan reports whether the thread's free set has reached the scan
// threshold (Algorithm 1 line 3).
func (st *StackTrack) NeedScan(t *sched.Thread) bool {
	return len(st.state(t).freeSet) > st.cfg.MaxFree
}

// Drain implements sched.Reclaimer: run complete scans until the free set
// stops shrinking (references parked on other threads' stacks keep their
// nodes alive until those threads go idle).
func (st *StackTrack) Drain(t *sched.Thread) {
	ts := st.state(t)
	for {
		before := len(ts.freeSet)
		if before == 0 {
			return
		}
		st.scanAndFreeSync(t)
		if len(ts.freeSet) >= before {
			return
		}
	}
}

// PendingFrees returns how many retired nodes thread t still holds.
func (st *StackTrack) PendingFrees(t *sched.Thread) int {
	return len(st.state(t).freeSet)
}

// chargeWords charges the scan cost of inspecting n words.
func chargeWords(t *sched.Thread, n int) {
	t.Charge(cost.Cycles(n) * cost.ScanWord)
}
