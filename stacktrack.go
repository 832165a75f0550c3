// Package stacktrack is a Go reproduction of "StackTrack: An Automated
// Transactional Approach to Concurrent Memory Reclamation" (Alistarh,
// Eugster, Herlihy, Matveev, Shavit — EuroSys 2014).
//
// Go is garbage-collected and has no hardware-transactional-memory
// intrinsics, so the system runs on a deterministic simulated machine (see
// DESIGN.md): a word-addressable memory with MESI-style coherence costs, a
// best-effort HTM with requester-wins conflicts / capacity aborts / strong
// isolation, a slab allocator with explicit free and poisoning, and
// simulated threads whose stacks and registers live inside the simulated
// memory — which is exactly what StackTrack's reclamation scans.
//
// # Quick start
//
//	res, err := stacktrack.Run(stacktrack.Config{
//		Structure: stacktrack.StructSkipList,
//		Scheme:    stacktrack.SchemeStackTrack,
//		Threads:   8,
//	})
//	fmt.Printf("%.0f ops/sec, %d nodes reclaimed\n", res.Throughput, res.Core.Freed)
//
// # Reproducing the paper
//
// Every figure and table of the paper's evaluation has a generator (Figure1List,
// Figure2Queue, …), all runnable at once via cmd/stbench.
//
// # Building your own structures
//
// NewSim assembles a machine; operations are written as basic-block
// programs (OpBuilder) whose pointer-valued locals live in simulated stack
// frames, and run under any reclamation scheme — see examples/treiberstack.
package stacktrack

import (
	"fmt"

	"stacktrack/internal/alloc"
	"stacktrack/internal/bench"
	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/reclaim"
	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

// --- Benchmark harness (the paper's evaluation) -------------------------------

// Config describes one benchmark run; zero fields take the paper's values.
type Config = bench.Config

// Result is the metric bundle of one run.
type Result = bench.Result

// Options tunes an experiment sweep (thread counts, durations, seed).
type Options = bench.Options

// Table is a printable experiment result.
type Table = bench.Table

// Scheme names for Config.Scheme.
const (
	SchemeOriginal   = bench.SchemeOriginal
	SchemeEpoch      = bench.SchemeEpoch
	SchemeHazards    = bench.SchemeHazards
	SchemeDTA        = bench.SchemeDTA
	SchemeRefCount   = bench.SchemeRefCount
	SchemeStackTrack = bench.SchemeStackTrack
)

// Structure names for Config.Structure.
const (
	StructList     = bench.StructList
	StructSkipList = bench.StructSkipList
	StructQueue    = bench.StructQueue
	StructHash     = bench.StructHash
	StructRBTree   = bench.StructRBTree
)

// Run executes one benchmark configuration end to end: build the machine,
// prefill the structure, warm up (predictor convergence), measure, then
// drain and verify reclamation.
func Run(cfg Config) (*Result, error) { return bench.Run(cfg) }

// QuickOptions returns a reduced experiment sweep suitable for tests and
// demos.
func QuickOptions() Options { return bench.QuickOptions() }

// Experiment generators, one per figure/table of the paper's §6, plus
// ablations of design choices (scan strategy §5.2, predictor policy §5.3/§7).
var (
	Figure1List         = bench.Figure1List
	Figure1SkipList     = bench.Figure1SkipList
	Figure2Queue        = bench.Figure2Queue
	Figure2Hash         = bench.Figure2Hash
	Figure3Aborts       = bench.Figure3Aborts
	Figure4Splits       = bench.Figure4Splits
	Figure5SlowPath     = bench.Figure5SlowPath
	TableScanStats      = bench.TableScanStats
	AblationScan        = bench.AblationScan
	AblationPredictor   = bench.AblationPredictor
	ExtensionSchemes    = bench.ExtensionSchemes
	ExtensionCrash      = bench.ExtensionCrash
	ExtensionBigMachine = bench.ExtensionBigMachine
)

// --- Machine-level API (custom structures and schemes) -------------------------

// Addr is a simulated memory address; 0 is the null pointer.
type Addr = word.Addr

// Memory is the simulated memory system with its best-effort HTM.
type Memory = mem.Memory

// Allocator is the slab allocator with explicit free and poisoning.
type Allocator = alloc.Allocator

// Scheduler is the deterministic virtual-time scheduler.
type Scheduler = sched.Scheduler

// Thread is a simulated thread context (registers, stack, virtual clock).
type Thread = sched.Thread

// Frame is an operation's simulated stack frame.
type Frame = sched.Frame

// Reclaimer is the interface all memory-reclamation schemes implement.
type Reclaimer = sched.Reclaimer

// Op is a data-structure operation in compiled (basic-block) form.
type Op = prog.Op

// OpBuilder assembles an operation's basic blocks with forward labels.
type OpBuilder = prog.Builder

// Runner executes operations; PlainRunner runs without transactions,
// core.Runner (via Sim.NewRunner) runs the StackTrack fast/slow paths.
type Runner = prog.Runner

// PlainRunner executes operations without transactions (baseline schemes).
type PlainRunner = prog.PlainRunner

// Driver adapts a Runner plus a workload into a schedulable thread body.
type Driver = prog.Driver

// StackTrack is the reclamation framework itself.
type StackTrack = core.StackTrack

// StackTrackConfig tunes the split predictor, scan batching, and slow path.
type StackTrackConfig = core.Config

// Topology models the simulated machine (cores × hyperthreads, cache).
type Topology = topo.Topology

// Cycles is a duration in virtual CPU cycles.
type Cycles = cost.Cycles

// Done ends an operation's block sequence.
const Done = prog.Done

// Register conventions for operation arguments and results.
const (
	RegResult = prog.RegResult
	RegArg1   = prog.RegArg1
	RegArg2   = prog.RegArg2
	RegArg3   = prog.RegArg3
)

// Haswell8Way returns the paper's evaluation machine: 4 cores × 2
// hyperthreads.
func Haswell8Way() Topology { return topo.Haswell8Way() }

// FromSeconds converts virtual seconds to cycles.
func FromSeconds(s float64) Cycles { return cost.FromSeconds(s) }

// SimConfig parameterizes NewSim.
type SimConfig struct {
	// Threads is the number of simulated threads (max 64).
	Threads int
	// MemWords sizes the simulated memory (default 4M words).
	MemWords int
	// Seed drives every random decision; runs are reproducible.
	Seed uint64
	// Topology defaults to Haswell8Way.
	Topology Topology
	// Scheme selects the reclamation scheme by benchmark name
	// (default StackTrack).
	Scheme string
	// Core tunes StackTrack when Scheme is StackTrack.
	Core StackTrackConfig
	// Validate enables use-after-free (poison) detection on every load.
	Validate bool
}

// Sim is an assembled simulated machine ready for custom data structures.
// Allocate structure roots with Alloc.Static before the first heap
// allocation, seed via Memory.Poke, then drive threads with Drivers.
type Sim struct {
	Memory  *Memory
	Alloc   *Allocator
	Sched   *Scheduler
	Threads []*Thread
	Scheme  Reclaimer
	// ST is non-nil when the scheme is StackTrack.
	ST *StackTrack
}

// NewSim assembles a simulated machine with attached threads and scheme.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 22
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Topology.Cores == 0 {
		cfg.Topology = Haswell8Way()
	}
	if cfg.Scheme == "" {
		cfg.Scheme = SchemeStackTrack
	}
	cfg.Scheme, _ = bench.CanonicalScheme(cfg.Scheme)
	if n := cfg.Topology.Contexts(); n > sched.MaxContexts {
		return nil, fmt.Errorf("stacktrack: topology has %d hardware contexts, at most %d supported", n, sched.MaxContexts)
	}
	m := mem.New(mem.Config{Words: cfg.MemWords, Topology: cfg.Topology})
	al := alloc.New(m)
	sc := sched.NewScheduler(m, cfg.Topology, cfg.Seed)

	s := &Sim{Memory: m, Alloc: al, Sched: sc}
	seed := cfg.Seed
	for i := 0; i < cfg.Threads; i++ {
		th := sched.NewThread(i, m, al, rng.Splitmix64(&seed))
		th.Validate = cfg.Validate
		s.Threads = append(s.Threads, th)
	}
	if cfg.Scheme == SchemeStackTrack {
		s.ST = core.New(sc, al, cfg.Core)
		s.Scheme = s.ST
	} else {
		scheme, err := reclaim.NewScheme(cfg.Scheme, sc, al)
		if err != nil {
			return nil, err
		}
		s.Scheme = scheme
	}
	for _, th := range s.Threads {
		th.Scheme = s.Scheme
		s.Scheme.Attach(th)
	}
	return s, nil
}

// NewRunner returns the appropriate per-thread operation runner for the
// sim's scheme: the StackTrack split runner, or a plain runner.
func (s *Sim) NewRunner() Runner {
	if s.ST != nil {
		return core.NewRunner(s.ST, nil)
	}
	return &prog.PlainRunner{}
}

// Start registers a workload driver for each thread. Call once, after
// structures are built.
func (s *Sim) Start(makeDriver func(t *Thread) *Driver) {
	for _, th := range s.Threads {
		s.Sched.AddThread(th, makeDriver(th))
	}
}

// Run advances the simulation until every thread's virtual clock reaches
// the horizon (or all workloads complete).
func (s *Sim) Run(horizon Cycles) { s.Sched.Run(horizon) }

// Drain asks the reclamation scheme to flush retired nodes (teardown).
func (s *Sim) Drain() {
	for range [4]int{} {
		for _, th := range s.Threads {
			s.Scheme.Drain(th)
		}
	}
}
