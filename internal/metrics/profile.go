package metrics

// Virtual-cycle profiler: attributes every simulated cycle a thread
// spends to a phase (block execution, tx begin/commit/abort, scan,
// free, fence, preemption, HT slowdown, blocked polling) and, for block
// execution, down to the individual program block. Attribution is
// self-cycles: a fence charged in the middle of a block shows up under
// the fence phase and is excluded from the block's own total, so the
// phase totals partition the run's cycles instead of double-counting.
//
// The profiler only reads virtual-time deltas; it never charges cycles
// itself, so enabling it cannot change simulated results.

import (
	"fmt"
	"io"
	"sort"
)

// Phase classifies where a thread's simulated cycles went.
type Phase int

const (
	// PhaseBlock is user program-block execution (self-cycles only:
	// fences, frees and tx bookkeeping inside a block are attributed
	// to their own phases).
	PhaseBlock Phase = iota
	// PhaseTxBegin is hardware-transaction begin (checkpoint + begin
	// cost, including SPLIT_INIT setup stores).
	PhaseTxBegin
	// PhaseTxCommit is successful commit work (split bookkeeping
	// stores, register exposure, the commit itself).
	PhaseTxCommit
	// PhaseTxAbort is abort handling and retry overhead.
	PhaseTxAbort
	// PhaseScan is SCAN_AND_FREE stack scanning.
	PhaseScan
	// PhaseFree is object reclamation (the free itself, not the scan
	// that decided it).
	PhaseFree
	// PhaseFence is memory-fence cost (hazard-pointer style fences,
	// slow-path publication fences).
	PhaseFence
	// PhasePreempt is context-switch overhead on both sides of a
	// preemption.
	PhasePreempt
	// PhaseHTSlow is the extra cycles charged when hyperthread
	// siblings share a core.
	PhaseHTSlow
	// PhaseBlocked is busy-poll cost while blocked on a runtime
	// condition (e.g. an empty queue in a blocking workload).
	PhaseBlocked

	// NumPhases bounds the enum for array sizing.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"block", "tx-begin", "tx-commit", "tx-abort", "scan",
	"free", "fence", "preempt", "ht-slowdown", "blocked",
}

// String renders the phase as its folded-stack frame name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// opProfile accumulates per-block self cycles for one op type.
type opProfile struct {
	name   string
	blocks []uint64
}

// ThreadProfile is one simulated thread's cycle attribution. All
// methods are cheap array arithmetic; the ops slice grows only the
// first time a new op id or block index is seen.
type ThreadProfile struct {
	ID     int
	phases [NumPhases]uint64
	// inner counts cycles already claimed by leaf attributions so an
	// enclosing span can subtract them and record only self-cycles.
	inner uint64
	ops   []opProfile
}

// Span marks the start of an outer attribution region; see SpanStart.
type Span struct {
	inner uint64
}

// AddPhase attributes c cycles to phase ph without marking them as
// claimed. Use for cycles charged outside any enclosing span
// (scheduler-side costs: preemption, HT slowdown, blocked polls).
func (tp *ThreadProfile) AddPhase(ph Phase, c uint64) {
	tp.phases[ph] += c
}

// AddLeaf attributes c cycles to phase ph and marks them claimed, so
// an enclosing Span excludes them from its self-cycles. Use for costs
// charged in the middle of a block or scan (fence, free, tx begin /
// commit / abort bookkeeping).
func (tp *ThreadProfile) AddLeaf(ph Phase, c uint64) {
	tp.phases[ph] += c
	tp.inner += c
}

// SpanStart opens an outer region. Pair with SpanPhase or SpanBlock,
// passing the region's elapsed virtual cycles; the span records
// elapsed minus whatever leaves claimed in between.
func (tp *ThreadProfile) SpanStart() Span {
	return Span{inner: tp.inner}
}

// SpanPhase closes a span, attributing its self-cycles to phase ph.
func (tp *ThreadProfile) SpanPhase(sp Span, ph Phase, elapsed uint64) {
	claimed := tp.inner - sp.inner
	if elapsed > claimed {
		tp.phases[ph] += elapsed - claimed
	}
}

// SpanBlock closes a span, attributing its self-cycles to block pc of
// op opID (named name) and to PhaseBlock.
func (tp *ThreadProfile) SpanBlock(sp Span, opID, pc int, name string, elapsed uint64) {
	claimed := tp.inner - sp.inner
	if elapsed <= claimed {
		return
	}
	self := elapsed - claimed
	tp.phases[PhaseBlock] += self
	if opID < 0 || pc < 0 {
		return
	}
	for opID >= len(tp.ops) {
		tp.ops = append(tp.ops, opProfile{})
	}
	op := &tp.ops[opID]
	if op.name == "" {
		op.name = name
	}
	for pc >= len(op.blocks) {
		op.blocks = append(op.blocks, 0)
	}
	op.blocks[pc] += self
}

// Total reports all cycles attributed to this thread.
func (tp *ThreadProfile) Total() uint64 {
	var s uint64
	for _, v := range tp.phases {
		s += v
	}
	return s
}

// Reset zeroes the profile.
func (tp *ThreadProfile) Reset() {
	tp.phases = [NumPhases]uint64{}
	tp.inner = 0
	tp.ops = nil
}

// Profiler owns the per-thread profiles for one simulation instance.
type Profiler struct {
	threads []*ThreadProfile
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Thread returns tid's profile, creating it on first use.
func (p *Profiler) Thread(tid int) *ThreadProfile {
	for tid >= len(p.threads) {
		p.threads = append(p.threads, nil)
	}
	if p.threads[tid] == nil {
		p.threads[tid] = &ThreadProfile{ID: tid}
	}
	return p.threads[tid]
}

// Reset zeroes every thread profile (handles stay valid).
func (p *Profiler) Reset() {
	for _, tp := range p.threads {
		if tp != nil {
			tp.Reset()
		}
	}
}

// FoldedStacks writes the profile as folded-stack lines compatible
// with flamegraph.pl: semicolon-separated frames, a space, and the
// cycle count. Output is deterministic (threads ascending, phases in
// enum order, blocks in index order); zero-count frames are omitted.
//
//	t0;block;list-insert;b2 1040
//	t0;fence 640
func (p *Profiler) FoldedStacks(w io.Writer) error {
	for _, tp := range p.threads {
		if tp == nil {
			continue
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if ph == PhaseBlock {
				continue
			}
			if c := tp.phases[ph]; c > 0 {
				if _, err := fmt.Fprintf(w, "t%d;%s %d\n", tp.ID, ph, c); err != nil {
					return err
				}
			}
		}
		var attributed uint64
		for opID := range tp.ops {
			op := &tp.ops[opID]
			name := op.name
			if name == "" {
				name = fmt.Sprintf("op%d", opID)
			}
			for pc, c := range op.blocks {
				if c == 0 {
					continue
				}
				attributed += c
				if _, err := fmt.Fprintf(w, "t%d;block;%s;b%d %d\n", tp.ID, name, pc, c); err != nil {
					return err
				}
			}
		}
		// Block cycles with no op identity (e.g. slow-path segments
		// recorded without a pc) still need a frame so totals add up.
		if rest := tp.phases[PhaseBlock] - attributed; rest > 0 {
			if _, err := fmt.Fprintf(w, "t%d;block;(unattributed) %d\n", tp.ID, rest); err != nil {
				return err
			}
		}
	}
	return nil
}

// ProfileSummary is the JSON-facing rollup of a profiler: total cycles
// and per-phase / per-op totals merged across threads.
type ProfileSummary struct {
	TotalCycles uint64            `json:"total_cycles"`
	Phases      map[string]uint64 `json:"phases"`
	Ops         map[string]uint64 `json:"ops,omitempty"`
}

// Summary merges all threads into a ProfileSummary.
func (p *Profiler) Summary() *ProfileSummary {
	s := &ProfileSummary{Phases: map[string]uint64{}}
	ops := map[string]uint64{}
	for _, tp := range p.threads {
		if tp == nil {
			continue
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if c := tp.phases[ph]; c > 0 {
				s.Phases[ph.String()] += c
				s.TotalCycles += c
			}
		}
		for opID := range tp.ops {
			op := &tp.ops[opID]
			var tot uint64
			for _, c := range op.blocks {
				tot += c
			}
			if tot == 0 {
				continue
			}
			name := op.name
			if name == "" {
				name = fmt.Sprintf("op%d", opID)
			}
			ops[name] += tot
		}
	}
	if len(ops) > 0 {
		s.Ops = ops
	}
	return s
}

// TopPhases reports phases sorted by descending cycles — a convenience
// for CLI summaries.
func (s *ProfileSummary) TopPhases() []struct {
	Name   string
	Cycles uint64
} {
	out := make([]struct {
		Name   string
		Cycles uint64
	}, 0, len(s.Phases))
	for n, c := range s.Phases {
		out = append(out, struct {
			Name   string
			Cycles uint64
		}{n, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}
