// Package bench is the experiment harness: it assembles a simulated
// machine, a reclamation scheme, a data structure, and a workload; runs
// warmup / measurement / drain phases; and reports the metrics behind every
// figure and table of the paper's evaluation (§6).
package bench

import (
	"fmt"
	"strings"

	"stacktrack/internal/alloc"
	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/ds"
	"stacktrack/internal/mem"
	"stacktrack/internal/metrics"
	"stacktrack/internal/prog"
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/rng"
	"stacktrack/internal/sanitize"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
	"stacktrack/internal/trace"
	"stacktrack/internal/word"
	"stacktrack/internal/workload"
)

// Canonical scheme names. Config.Scheme also accepts every spelling in
// schemeSpellings.
const (
	SchemeOriginal   = "Original"
	SchemeEpoch      = "Epoch"
	SchemeHazards    = "Hazards"
	SchemeDTA        = "DTA"
	SchemeRefCount   = "RefCount"
	SchemeStackTrack = "StackTrack"
	SchemeUnsafeFree = "UnsafeFree"
)

// schemeSpellings maps every accepted scheme spelling, lowercased, to its
// canonical name: the paper's names and the short ones stfuzz documents.
var schemeSpellings = map[string]string{
	"original": SchemeOriginal, "leak": SchemeOriginal, "epoch": SchemeEpoch, "hazards": SchemeHazards,
	"hp": SchemeHazards, "dta": SchemeDTA, "refcount": SchemeRefCount, "stacktrack": SchemeStackTrack,
	"unsafefree": SchemeUnsafeFree, "unsafe": SchemeUnsafeFree,
}

// CanonicalScheme resolves a scheme spelling, case-insensitively, to its
// canonical name. An unknown name comes back unchanged with ok false.
func CanonicalScheme(name string) (canon string, ok bool) {
	if canon, ok = schemeSpellings[strings.ToLower(name)]; !ok {
		canon = name
	}
	return canon, ok
}

// Structure names accepted by Config.Structure.
const (
	StructList     = "list"
	StructSkipList = "skiplist"
	StructQueue    = "queue"
	StructHash     = "hash"
	StructRBTree   = "rbtree"
)

// Structures lists the names accepted by Config.Structure.
var Structures = []string{StructList, StructSkipList, StructQueue, StructHash, StructRBTree}

// Config describes one benchmark run.
type Config struct {
	Structure string
	Scheme    string
	Threads   int
	Seed      uint64

	// Set workload parameters (list/skiplist/hash/rbtree).
	InitialSize int
	KeyRange    uint64
	MutatePct   int
	Buckets     int // hash only

	// QueuePrefill seeds the queue before measurement.
	QueuePrefill int

	// Virtual-time phases.
	WarmupCycles  cost.Cycles
	MeasureCycles cost.Cycles

	MemWords int
	Topology topo.Topology
	Core     core.Config

	// Validate enables poison (use-after-free) detection on every load.
	Validate bool

	// TraceEvents, when positive, records up to that many simulation
	// events (segment commits/aborts, scans, frees, preemptions) into
	// Result.Trace.
	TraceEvents int

	// RingTrace keeps the *last* TraceEvents events instead of the first,
	// so the failure tail of a long run stays visible (schedule fuzzing).
	RingTrace bool

	// Policy, when non-nil, overrides the scheduler's built-in
	// virtual-time scheduling rule (see sched.Policy). internal/explore
	// supplies strategies and record/replay wrappers.
	Policy sched.Policy

	// History, when true, records every completed set operation's key,
	// kind, result, and real-time interval into Result.Histories — the
	// input to the per-key linearizability checker. Ignored for the
	// queue and rbtree structures.
	History bool

	// CrashThreads kills this many threads (the highest-numbered ones)
	// mid-operation after warmup, reproducing the paper's thread-crash
	// failure mode: quiescence-based schemes stop reclaiming entirely,
	// scan/pointer-based schemes keep only the dead threads' references
	// alive.
	CrashThreads int

	// Profile enables the virtual-cycle profiler: per-thread, per-phase
	// (and per-block) cycle attribution into Result.Profile and
	// Result.Folded. Profiling reads clock deltas only — it never
	// charges cycles — so simulated results are bit-identical with it
	// on or off.
	Profile bool

	// Sanitize enables the dynamic-analysis layer (internal/sanitize):
	// happens-before race detection plus shadow-memory UAF/redzone
	// checking, reported in Result.San. Like Profile, it observes only —
	// simulated results are bit-identical with it on or off.
	Sanitize bool

	// NoScanElide disables dataflow-driven scan elision for StackTrack
	// runs (the E16 ablation). By default the harness computes a track
	// mask for every effect-annotated operation and the scanner skips
	// words proven never to hold a live heap pointer.
	NoScanElide bool

	// CheckEffects enables the dynamic effect-soundness oracle: every
	// block execution's register and frame accesses are checked against
	// the operation's declared Reads/Writes/LoadsPtr/Kills sets, reported
	// in Result.San.Effects. Observes only — simulated results are
	// bit-identical with it on or off.
	CheckEffects bool
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Structure == "" {
		c.Structure = StructList
	}
	if c.Scheme == "" {
		c.Scheme = SchemeStackTrack
	}
	c.Scheme, _ = CanonicalScheme(c.Scheme)
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Seed == 0 {
		c.Seed = 0x57ACC7AC4
	}
	if c.InitialSize <= 0 {
		switch c.Structure {
		case StructSkipList:
			c.InitialSize = 100_000
		case StructHash:
			c.InitialSize = 10_000
		case StructRBTree:
			c.InitialSize = 65_535
		default:
			c.InitialSize = 5_000
		}
	}
	if c.KeyRange == 0 {
		c.KeyRange = 2 * uint64(c.InitialSize)
	}
	if c.MutatePct == 0 {
		c.MutatePct = 20
	}
	if c.Buckets == 0 {
		c.Buckets = 4096
	}
	if c.QueuePrefill == 0 {
		c.QueuePrefill = 1024
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = cost.FromSeconds(0.005)
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = cost.FromSeconds(0.020)
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 22
	}
	if c.Topology.Cores == 0 {
		c.Topology = topo.Haswell8Way()
	}
	return c
}

// Result is the metric bundle of one run.
type Result struct {
	Config Config

	// Ops completed during the measurement window and the derived
	// throughput in operations per virtual second.
	Ops        uint64
	Throughput float64

	// Decisions is the scheduler's total decision count for the whole
	// run — the unit of host interpreter work (one per basic block step,
	// blocked-wait poll, or preemption choice). The host-speed benchmark
	// divides it by host time; it is not part of the exported point
	// document.
	Decisions uint64

	// SuccInserts/SuccDeletes/Hits classify operations completed during
	// the measurement window.
	SuccInserts uint64
	SuccDeletes uint64
	Hits        uint64

	// TotalInserts/TotalDeletes cover the whole run (warmup, measurement,
	// and drain), so conservation holds exactly:
	// FinalCount == InitialSize + TotalInserts - TotalDeletes.
	TotalInserts uint64
	TotalDeletes uint64

	Mem  mem.Stats  // transactional-memory events during measurement
	Core core.Stats // StackTrack events during measurement (zero otherwise)

	// Metrics is every layer's counters, levels and histograms at
	// measurement end, keyed by name (see metricsSnapshot).
	Metrics metrics.Snapshot

	// Profile and Folded carry the virtual-cycle profile when
	// Config.Profile is set: the merged phase/op summary and the
	// per-thread folded-stack lines (flamegraph.pl input).
	Profile *metrics.ProfileSummary
	Folded  string

	// Memory hygiene after the drain phase.
	LiveObjects   uint64 // allocator objects still allocated
	BaselineLive  uint64 // objects the structure legitimately retains
	PendingFrees  int    // retired nodes still awaiting reclamation
	LeakedObjects uint64 // LiveObjects - BaselineLive - structure churn
	UAFReads      uint64 // poison loads observed (0 for a correct scheme)

	// FinalCount is the structure's element count after drain (sets).
	FinalCount int

	// AvgSegmentLimit is the predictor's converged split length (Fig. 4).
	AvgSegmentLimit float64

	// Trace holds recorded simulation events when Config.TraceEvents > 0.
	Trace *trace.Recorder

	// Histories holds each key's completed operations in issue order when
	// Config.History is set (set structures only).
	Histories map[uint64][]KeyOp

	// San carries the sanitizer's report bundle when Config.Sanitize is
	// set: data races, use-after-free, redzone, and wild accesses.
	San *sanitize.Summary
}

// instance bundles the live simulation objects of one run.
type instance struct {
	cfg  Config
	m    *mem.Memory
	al   *alloc.Allocator
	sc   *sched.Scheduler
	prof *metrics.Profiler
	san  *sanitize.Sanitizer
	eff  *sanitize.EffectChecker // nil unless Config.CheckEffects

	threads []*sched.Thread
	drivers []*prog.Driver
	scheme  sched.Reclaimer
	st      *core.StackTrack // nil unless Scheme == StackTrack

	// opCycles is every runner's per-operation latency histogram,
	// whatever the scheme.
	opCycles metrics.Histogram

	stopping bool
	baseline func() uint64
	tracer   *trace.Recorder
	// structure retains the data-structure object for tests/diagnostics.
	structure any
	// ops indexes the structure's operations by ID, for snapshot restore.
	ops map[int]*prog.Op

	// op counters, classified on completion
	succIns, succDel, hits uint64
	uafReads               uint64
	// firstUAF is the scheduler's decision count at the first poison read.
	firstUAF uint64

	// histories: per-key completed operations when Config.History is set.
	// histStarts is the per-driver issue time of the in-flight operation —
	// an instance slot (not a closure local) so snapshots can carry it.
	histories  map[uint64][]KeyOp
	histStarts []cost.Cycles

	// Phase machine: resumable, so a checkpoint can pause mid-phase and a
	// restored instance can continue from exactly where the save left off.
	phase           int
	horizon         cost.Cycles
	crashIdx        int
	crashTries      int
	crashRunPending bool
	warmIns         uint64
	warmDel         uint64
	warmHits        uint64
	opsBefore       uint64
}

// Phase-machine states. Checkpoints may be taken in warmup, crash, and
// measure; the measurement bookkeeping (counter reset, warm-counter
// capture) is its own state so it runs exactly once across save/restore.
const (
	phaseWarmup = iota
	phaseCrash
	phaseMeasureStart
	phaseMeasure
	phaseMeasured
)

// newInstance assembles the simulation for cfg without running it.
func newInstance(cfg Config) (*instance, error) {
	cfg = cfg.WithDefaults()
	if cfg.Threads > mem.MaxThreads {
		return nil, fmt.Errorf("bench: %d threads exceeds the %d-thread limit", cfg.Threads, mem.MaxThreads)
	}
	if n := cfg.Topology.Contexts(); n > sched.MaxContexts {
		return nil, fmt.Errorf("bench: topology has %d hardware contexts, at most %d supported", n, sched.MaxContexts)
	}
	if cfg.MutatePct < 0 || cfg.MutatePct > 100 {
		return nil, fmt.Errorf("bench: mutation percentage %d outside [0, 100]", cfg.MutatePct)
	}
	if p := cfg.Core.ForceSlowPct; p < 0 || p > 100 {
		return nil, fmt.Errorf("bench: slow-path percentage %d outside [0, 100]", p)
	}

	in := &instance{cfg: cfg}
	in.m = mem.New(mem.Config{Words: cfg.MemWords, Topology: cfg.Topology})
	in.al = alloc.New(in.m)
	in.sc = sched.NewScheduler(in.m, cfg.Topology, cfg.Seed)
	if cfg.Profile {
		in.prof = metrics.NewProfiler()
	}
	if cfg.Sanitize {
		in.san = sanitize.New(cfg.Threads)
		in.m.SetObserver(in.san)
		in.al.SetObserver(in.san)
		in.sc.SetObserver(in.san)
	}

	if cfg.TraceEvents > 0 {
		if cfg.RingTrace {
			in.tracer = trace.NewRingRecorder(cfg.TraceEvents)
		} else {
			in.tracer = trace.NewRecorder(cfg.TraceEvents)
		}
	}
	if cfg.Policy != nil {
		in.sc.SetPolicy(cfg.Policy)
	}

	// Threads first: their stacks and register files are static regions.
	seedStream := cfg.Seed
	for i := 0; i < cfg.Threads; i++ {
		t := sched.NewThread(i, in.m, in.al, rng.Splitmix64(&seedStream))
		if cfg.Validate {
			t.Validate = true
			t.SetUAFReporter(func(t *sched.Thread, a word.Addr) {
				if in.uafReads == 0 {
					in.firstUAF = in.sc.Decisions()
				}
				in.uafReads++
			})
		}
		if in.tracer != nil {
			t.Tracer = in.tracer
		}
		if in.prof != nil {
			t.Prof = in.prof.Thread(i)
		}
		in.threads = append(in.threads, t)
	}
	if in.san != nil {
		in.san.Attach(in.threads, in.al)
	}

	// Scheme next: hazard/anchor slots are also static regions.
	if err := in.buildScheme(); err != nil {
		return nil, err
	}
	for _, t := range in.threads {
		t.Scheme = in.scheme
		in.scheme.Attach(t)
	}

	// Structure roots are the last static allocations; prefill opens the
	// heap.
	nextOp, baseline, err := in.buildStructure()
	if err != nil {
		return nil, err
	}
	in.baseline = baseline

	// Static dataflow: hand the scanner a track mask for every operation
	// whose effect annotations yield complete facts.
	if in.st != nil && !cfg.NoScanElide {
		masks := make(map[int]dataflow.TrackMask, len(in.ops))
		for id, op := range in.ops {
			if f := dataflow.Analyze(op); f.Complete {
				masks[id] = f.Mask
			}
		}
		in.st.SetMasks(masks)
	}

	// Dynamic effect oracle: check every block execution's register and
	// frame accesses against the declared effect sets the dataflow pass
	// (and therefore the elision masks) trusts.
	if cfg.CheckEffects {
		in.eff = sanitize.NewEffectChecker(cfg.Threads, in.al)
		for _, op := range in.ops {
			in.eff.AddOps(op)
		}
		for _, t := range in.threads {
			t.EffectObs = in.eff
		}
	}

	for _, t := range in.threads {
		d := &prog.Driver{
			Runner: in.newRunner(),
			Next: func(t *sched.Thread) (*prog.Op, [3]uint64, bool) {
				if in.stopping {
					return nil, [3]uint64{}, false
				}
				op, args := nextOp(t)
				return op, args, true
			},
			OnDone: in.classify,
		}
		in.drivers = append(in.drivers, d)
		in.sc.AddThread(t, d)
	}
	if cfg.History && isSetStructure(cfg.Structure) {
		in.collectHistories()
	}
	return in, nil
}

// isSetStructure reports whether the structure is a key set (the shapes the
// per-key linearizability checker understands).
func isSetStructure(structure string) bool {
	switch structure {
	case StructList, StructSkipList, StructHash:
		return true
	}
	return false
}

// collectHistories wraps every driver so each completed operation lands in
// in.histories with its key, kind, result, and real-time interval.
func (in *instance) collectHistories() {
	in.histories = make(map[uint64][]KeyOp)
	in.histStarts = make([]cost.Cycles, len(in.drivers))
	for i, d := range in.drivers {
		i, d := i, d
		origNext, origDone := d.Next, d.OnDone
		d.Next = func(th *sched.Thread) (*prog.Op, [3]uint64, bool) {
			in.histStarts[i] = th.VTime()
			return origNext(th)
		}
		d.OnDone = func(th *sched.Thread, o *prog.Op, result uint64) {
			var kind KeyOpKind
			switch o.ID {
			case ds.OpInsert:
				kind = KInsert
			case ds.OpDelete:
				kind = KDelete
			default:
				kind = KContains
			}
			key := th.Reg(prog.RegArg1)
			in.histories[key] = append(in.histories[key], KeyOp{
				Kind: kind, OK: result != 0, Start: in.histStarts[i], End: th.VTime(),
			})
			origDone(th, o, result)
		}
	}
}

// InitialKeys returns the set of keys a set-structure run is seeded with —
// the initial presence map for per-key linearizability checking. It
// replicates the harness's own prefill sampling, so it is valid for any
// Config with the same Seed/InitialSize/KeyRange.
func InitialKeys(cfg Config) map[uint64]bool {
	cfg = cfg.WithDefaults()
	out := make(map[uint64]bool, cfg.InitialSize)
	if !isSetStructure(cfg.Structure) {
		return out
	}
	for _, k := range workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange) {
		out[k] = true
	}
	return out
}

// advance drives the phase machine until the measurement window completes
// or a configured scheduler pause point fires (sc.Paused()). Re-entering
// after a pause — in the same process or after a restore — continues from
// exactly the interrupted point: each scheduler Run call re-issues with an
// unchanged horizon, which is idempotent.
func (in *instance) advance() {
	cfg := in.cfg
	for {
		switch in.phase {
		case phaseWarmup:
			// Warmup: let the split predictor converge (§6 "Split
			// predictor").
			in.sc.Run(cfg.WarmupCycles)
			if in.sc.Paused() {
				return
			}
			in.horizon = cfg.WarmupCycles
			in.phase = phaseCrash

		case phaseCrash:
			// Crash injection: kill the highest-numbered threads
			// mid-operation, so their stacks pin references forever. The
			// wait for a mid-operation moment can run long when the victim
			// is a descheduled waiter on an oversubscribed context (its
			// aborted transactions keep resetting the activity word), so
			// the measurement window starts from wherever the wait left
			// the clock rather than a fixed horizon.
			for in.crashIdx < cfg.CrashThreads && in.crashIdx < cfg.Threads-1 {
				tid := cfg.Threads - 1 - in.crashIdx
				if !in.crashSearch(in.threads[tid]) {
					return
				}
				in.sc.Crash(tid)
				in.crashIdx++
				in.crashTries = 0
			}
			in.phase = phaseMeasureStart

		case phaseMeasureStart:
			// Measurement: zero every layer's counters and the op
			// histogram, and restart the profiler. The allocator's
			// levels survive the reset.
			*in.m.Stats() = mem.Stats{}
			*in.sc.Stats() = sched.Stats{}
			if in.st != nil {
				*in.st.Stats() = core.Stats{}
			}
			in.opCycles = metrics.Histogram{}
			if in.prof != nil {
				in.prof.Reset()
			}
			in.warmIns, in.warmDel, in.warmHits = in.succIns, in.succDel, in.hits
			in.opsBefore = 0
			for _, t := range in.threads {
				in.opsBefore += t.OpsDone
			}
			in.phase = phaseMeasure

		case phaseMeasure:
			in.sc.Run(in.horizon + cfg.MeasureCycles)
			if in.sc.Paused() {
				return
			}
			in.phase = phaseMeasured

		case phaseMeasured:
			return
		}
	}
}

// finish assembles the measurement result, then drains. Only valid once
// advance has reached the end of the measurement window.
func (in *instance) finish() (*Result, error) {
	cfg := in.cfg
	if in.phase != phaseMeasured {
		return nil, fmt.Errorf("bench: finish before the measurement window completed")
	}
	warmIns, warmDel, warmHits := in.warmIns, in.warmDel, in.warmHits
	opsBefore, horizon := in.opsBefore, in.horizon

	res := &Result{Config: cfg, Decisions: in.sc.Decisions()}
	for _, t := range in.threads {
		res.Ops += t.OpsDone
	}
	res.Ops -= opsBefore
	res.Throughput = float64(res.Ops) / cost.Seconds(cfg.MeasureCycles)
	res.Mem = *in.m.Stats()
	if in.st != nil {
		res.Core = *in.st.Stats()
		res.AvgSegmentLimit = in.st.AvgSegmentLimit()
	}
	// Snapshot before the drain phase pollutes the counters.
	res.Metrics = in.metricsSnapshot()
	if in.prof != nil {
		res.Profile = in.prof.Summary()
		var sb strings.Builder
		if err := in.prof.FoldedStacks(&sb); err != nil {
			return nil, err
		}
		res.Folded = sb.String()
	}
	res.SuccInserts = in.succIns - warmIns
	res.SuccDeletes = in.succDel - warmDel
	res.Hits = in.hits - warmHits

	// Drain: finish in-flight operations, then let the scheme reclaim.
	// Race detection ends here: the drain's host-forced frees bypass the
	// schemes' synchronization protocols, so they have no happens-before
	// story to check. Shadow (UAF) checking stays on through the drain.
	in.stopping = true
	if in.san != nil {
		in.san.EndRun()
	}
	in.sc.Run(horizon + cfg.MeasureCycles + cost.FromSeconds(1.0))
	for range [4]int{} {
		for _, t := range in.threads {
			in.scheme.Drain(t)
		}
	}
	if in.st != nil {
		for _, t := range in.threads {
			res.PendingFrees += in.st.PendingFrees(t)
		}
	}
	res.TotalInserts, res.TotalDeletes = in.succIns, in.succDel
	res.UAFReads = in.uafReads
	res.LiveObjects = in.al.Stats().LiveObjects
	res.BaselineLive = in.baseline()
	if res.LiveObjects >= res.BaselineLive {
		res.LeakedObjects = res.LiveObjects - res.BaselineLive
	}
	res.FinalCount = int(res.BaselineLive)
	res.Trace = in.tracer
	res.Histories = in.histories
	if in.san != nil {
		res.San = in.san.Summary()
	}
	if in.eff != nil {
		if res.San == nil {
			res.San = &sanitize.Summary{}
		}
		res.San.EffectViolations = in.eff.Violations
		res.San.Effects = in.eff.Findings
	}
	return res, nil
}

// crashSearchTries caps the Runs a crash-point search makes per victim.
const crashSearchTries = 10_000

// crashSearch advances the schedule one short horizon step per Run until
// victim is mid-operation or crashSearchTries Runs have gone by. It
// reports false when a scheduler pause point fired first; calling it again
// resumes the search where it stopped.
//
// On an oversubscribed context, a Run that finds the occupant at the
// horizon rotates in each waiter still below it, and every rotation lands
// the incoming thread two context switches past the outgoing one. With k
// threads on a context, a step under 2k−1 context switches can end every
// Run in such rotations with nothing stepped, so the search steps that far.
func (in *instance) crashSearch(victim *sched.Thread) bool {
	step := cost.Cycles(5_000)
	n := in.cfg.Topology.Contexts()
	if k := (in.cfg.Threads + n - 1) / n; k > 1 {
		step = cost.Cycles(2*k-1) * cost.ContextSwitch
	}
	for in.crashTries < crashSearchTries && (in.crashRunPending || !in.midOp(victim)) {
		if !in.crashRunPending {
			in.horizon += step
			in.crashRunPending = true
		}
		in.sc.Run(in.horizon)
		if in.sc.Paused() {
			return false
		}
		in.crashRunPending = false
		in.crashTries++
	}
	return true
}

// midOp reports whether thread t is currently inside an operation, under
// either activity-word or operation-counter-parity conventions.
func (in *instance) midOp(t *sched.Thread) bool {
	return in.m.Peek(t.ActivityAddr()) != 0 || in.m.Peek(t.OperCntAddr())%2 == 1
}

// newRunner returns a fresh per-thread operation runner.
func (in *instance) newRunner() prog.Runner {
	if in.st != nil {
		return core.NewRunner(in.st, &in.opCycles)
	}
	// Baseline runners observe op latency into the same histogram the
	// StackTrack runner uses, so profiles are comparable across schemes.
	return &prog.PlainRunner{Hist: &in.opCycles}
}

// metricsSnapshot builds Result.Metrics from the layers' stats structs;
// it is the one place that names them. Every run reports mem.*, sched.*,
// the alloc.* levels and ops.op_cycles; StackTrack runs add core.* and
// core.seg_len_blocks.
func (in *instance) metricsSnapshot() metrics.Snapshot {
	m, sc, al := in.m.Stats(), in.sc.Stats(), in.al.Stats()
	s := metrics.Snapshot{
		Counters: map[string]uint64{
			"mem.tx_begins":          m.TxBegins,
			"mem.commits":            m.Commits,
			"mem.aborts_conflict":    m.ConflictAborts,
			"mem.aborts_capacity":    m.CapacityAborts,
			"mem.aborts_preempt":     m.PreemptAborts,
			"mem.aborts_explicit":    m.ExplicitAborts,
			"mem.plain_reads":        m.PlainReads,
			"mem.plain_writes":       m.PlainWrites,
			"mem.tx_reads":           m.TxReads,
			"mem.tx_writes":          m.TxWrites,
			"mem.lines_read":         m.LinesRead,
			"mem.lines_written":      m.LinesWritten,
			"mem.committed_actions":  m.CommittedActions,
			"mem.coherence_misses":   m.CoherenceMisses,
			"sched.preemptions":      sc.Preemptions,
			"sched.context_switches": sc.ContextSwitches,
			"sched.blocked_polls":    sc.BlockedPolls,
			"sched.crashes":          sc.Crashes,
		},
		Gauges: map[string]int64{
			"alloc.allocs":       int64(al.Allocs),
			"alloc.frees":        int64(al.Frees),
			"alloc.pages_in_use": int64(al.PagesInUse),
			"alloc.live_objects": int64(al.LiveObjects),
			"alloc.live_words":   int64(al.LiveWords),
		},
		Histograms: map[string]metrics.HistSnapshot{
			"ops.op_cycles": {
				Buckets: append([]uint64(nil), in.opCycles.Buckets[:]...),
				Count:   in.opCycles.Count,
				Sum:     in.opCycles.Sum,
			},
		},
	}
	if in.st == nil {
		return s
	}
	c := *in.st.Stats()
	for name, v := range map[string]uint64{
		"core.segments":       c.Segments,
		"core.segment_blocks": c.SegmentBlocks,
		"core.ops_fast":       c.OpsFast,
		"core.ops_slow":       c.OpsSlow,
		"core.scans":          c.Scans,
		"core.scan_restarts":  c.ScanRestarts,
		"core.scanned_words":  c.ScannedWords,
		"core.scanned_depth":  c.ScannedDepth,
		"core.elided_words":   c.ElidedWords,
		"core.scan_targets":   c.ScanTargets,
		"core.frees":          c.Frees,
		"core.freed":          c.Freed,
		"core.false_held":     c.FalseHeld,
		"core.wasted_cycles":  c.WastedCycles,
	} {
		s.Counters[name] = v
	}
	// Every committed segment lands in exactly one bucket, so the
	// histogram's count and sum are the segment and block counters.
	s.Histograms["core.seg_len_blocks"] = metrics.HistSnapshot{
		Buckets: c.SegLenHist[:], Count: c.Segments, Sum: c.SegmentBlocks,
	}
	return s
}

// registerOps indexes the structure's operations by ID for snapshot
// restore (Block closures are not serializable; operations travel by ID).
func (in *instance) registerOps(ops ...*prog.Op) {
	in.ops = make(map[int]*prog.Op, len(ops))
	for _, o := range ops {
		in.ops[o.ID] = o
	}
}

// opByID resolves an operation ID against the structure's op table.
func (in *instance) opByID(id int) *prog.Op {
	o := in.ops[id]
	if o == nil {
		panic(fmt.Sprintf("bench: snapshot references unknown op id %d", id))
	}
	return o
}

// buildScheme constructs the reclamation scheme.
func (in *instance) buildScheme() error {
	if in.cfg.Scheme == SchemeStackTrack {
		in.st = core.New(in.sc, in.al, in.cfg.Core)
		in.scheme = in.st
		return nil
	}
	s, err := reclaim.NewScheme(in.cfg.Scheme, in.sc, in.al)
	if err != nil {
		return err
	}
	in.scheme = s
	return nil
}

// classify tallies operation outcomes.
func (in *instance) classify(t *sched.Thread, op *prog.Op, result uint64) {
	switch op.Name {
	case "list.Insert", "skiplist.Insert", "hash.Insert", "queue.Enqueue":
		if result != 0 {
			in.succIns++
		}
	case "list.Delete", "skiplist.Delete", "hash.Delete":
		if result != 0 {
			in.succDel++
		}
	case "queue.Dequeue":
		if result != 0 {
			in.succDel++
		}
	default:
		if result != 0 {
			in.hits++
		}
	}
}

// buildStructure creates and prefills the benchmark structure and returns
// the per-thread workload function plus a baseline() that counts the
// structure's legitimate live objects after drain.
func (in *instance) buildStructure() (func(t *sched.Thread) (*prog.Op, [3]uint64), func() uint64, error) {
	cfg := in.cfg
	switch cfg.Structure {
	case StructList:
		l := ds.NewList(in.al)
		in.structure = l
		in.registerOps(l.OpContains, l.OpInsert, l.OpDelete)
		keys := workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange)
		l.Seed(in.al, in.m, keys, 7)
		mix := workload.SetMix{KeyRange: cfg.KeyRange, MutatePct: cfg.MutatePct}
		next := func(t *sched.Thread) (*prog.Op, [3]uint64) {
			kind, key := mix.Next(t.Rng)
			switch kind {
			case workload.SetInsert:
				return l.OpInsert, [3]uint64{key, key + 1}
			case workload.SetDelete:
				return l.OpDelete, [3]uint64{key}
			default:
				return l.OpContains, [3]uint64{key}
			}
		}
		baseline := func() uint64 {
			return uint64(ds.WalkLen(in.m, l.Head(), cfg.MemWords))
		}
		return next, baseline, nil

	case StructHash:
		h := ds.NewHashTable(in.al, cfg.Buckets)
		in.structure = h
		in.registerOps(h.OpContains, h.OpInsert, h.OpDelete)
		keys := workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange)
		h.Seed(in.al, in.m, keys, 7)
		mix := workload.SetMix{KeyRange: cfg.KeyRange, MutatePct: cfg.MutatePct}
		next := func(t *sched.Thread) (*prog.Op, [3]uint64) {
			kind, key := mix.Next(t.Rng)
			switch kind {
			case workload.SetInsert:
				return h.OpInsert, [3]uint64{key, key + 1}
			case workload.SetDelete:
				return h.OpDelete, [3]uint64{key}
			default:
				return h.OpContains, [3]uint64{key}
			}
		}
		baseline := func() uint64 { return uint64(h.Count(in.m, cfg.MemWords)) }
		return next, baseline, nil

	case StructSkipList:
		s := ds.NewSkipList(in.al)
		in.structure = s
		in.registerOps(s.OpContains, s.OpInsert, s.OpDelete)
		keys := workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange)
		s.Seed(in.al, in.m, keys, 7, cfg.Seed+2)
		mix := workload.SetMix{KeyRange: cfg.KeyRange, MutatePct: cfg.MutatePct}
		next := func(t *sched.Thread) (*prog.Op, [3]uint64) {
			kind, key := mix.Next(t.Rng)
			switch kind {
			case workload.SetInsert:
				return s.OpInsert, [3]uint64{key, key + 1}
			case workload.SetDelete:
				return s.OpDelete, [3]uint64{key}
			default:
				return s.OpContains, [3]uint64{key}
			}
		}
		baseline := func() uint64 {
			return uint64(s.LevelLen(in.m, 0, cfg.MemWords))
		}
		return next, baseline, nil

	case StructQueue:
		q := ds.NewQueue(in.al)
		in.structure = q
		in.registerOps(q.OpEnqueue, q.OpDequeue, q.OpPeek)
		vals := make([]uint64, cfg.QueuePrefill)
		for i := range vals {
			vals[i] = uint64(i) + 1
		}
		q.Seed(in.al, in.m, vals)
		mix := workload.QueueMix{MutatePct: cfg.MutatePct, ValRange: 1 << 20}
		next := func(t *sched.Thread) (*prog.Op, [3]uint64) {
			kind, val := mix.Next(t.Rng)
			switch kind {
			case workload.QueueEnqueue:
				return q.OpEnqueue, [3]uint64{val}
			case workload.QueueDequeue:
				return q.OpDequeue, [3]uint64{}
			default:
				return q.OpPeek, [3]uint64{}
			}
		}
		baseline := func() uint64 {
			// Remaining elements plus the dummy node.
			return uint64(q.Len(in.m, cfg.MemWords)) + 1
		}
		return next, baseline, nil

	case StructRBTree:
		r := ds.NewRBTree(in.al)
		in.structure = r
		in.registerOps(r.OpSearch)
		keys := workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange)
		r.Seed(in.al, in.m, keys)
		nKeys := uint64(len(keys))
		next := func(t *sched.Thread) (*prog.Op, [3]uint64) {
			return r.OpSearch, [3]uint64{keys[t.Rng.Uint64n(nKeys)]}
		}
		baseline := func() uint64 { return nKeys }
		return next, baseline, nil

	default:
		return nil, nil, fmt.Errorf("bench: unknown structure %q", cfg.Structure)
	}
}
