// Package reclaim implements the memory-reclamation baselines the paper
// benchmarks StackTrack against (§6):
//
//   - Original: no reclamation at all — the upper bound on performance and
//     the lower bound on memory hygiene (it leaks every retired node).
//   - Epoch: quiescence-based reclamation. Per-operation timestamps are
//     cheap, but the free procedure must wait for every other thread to
//     make progress, so preempted threads stall reclamation (the collapse
//     above 8 threads in Figures 1–2).
//   - Hazards: Michael's hazard pointers, manually customized per data
//     structure (the slot arguments in the data-structure code). Each
//     protected load pays a fence, the dominant cost on long traversals.
//   - DTA: drop-the-anchor, with anchors published every A hops (amortizing
//     the fence) and a non-blocking retire-era reclamation rule standing in
//     for the paper's freezing recovery (see DESIGN.md §5).
//
// StackTrack itself lives in internal/core; all schemes implement
// sched.Reclaimer and are interchangeable underneath the same
// data-structure code.
package reclaim

import (
	"fmt"

	"stacktrack/internal/alloc"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// Leak is the "Original" non-reclaiming scheme: retired nodes are dropped
// and never freed, exactly like the uninstrumented implementations the
// paper compares against.
type Leak struct {
	sched.NopReclaimer
	// Leaked counts retired-and-dropped nodes for leak reporting.
	Leaked uint64
}

// NewLeak returns the Original scheme.
func NewLeak() *Leak { return &Leak{} }

// Name implements sched.Reclaimer.
func (*Leak) Name() string { return "Original" }

// Retire implements sched.Reclaimer by dropping the node on the floor.
func (l *Leak) Retire(_ *sched.Thread, _ word.Addr) { l.Leaked++ }

// NewScheme constructs a scheme by its canonical benchmark name (other
// spellings resolve through bench.CanonicalScheme first). StackTrack is
// built separately (it also needs a Runner); this covers the plain-runner
// baselines.
func NewScheme(name string, sc *sched.Scheduler, al *alloc.Allocator) (sched.Reclaimer, error) {
	switch name {
	case "Original":
		return NewLeak(), nil
	case "Epoch":
		return NewEpoch(sc, DefaultEpochLimit), nil
	case "Hazards":
		return NewHazard(sc, al, DefaultHazardSlots, DefaultHazardLimit), nil
	case "DTA":
		return NewDTA(sc, al, DefaultAnchorHops, DefaultDTALimit), nil
	case "RefCount":
		return NewRefCount(sc, DefaultRefSlots), nil
	case "UnsafeFree":
		return NewUnsafeFree(), nil
	default:
		return nil, fmt.Errorf("reclaim: unknown scheme %q", name)
	}
}
