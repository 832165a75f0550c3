// Package topo models the hardware topology of the simulated machine: how
// many physical cores it has, how many hardware threads (hyperthreads) each
// core multiplexes, and how software threads map onto hardware contexts.
//
// The paper's evaluation machine is an Intel Haswell with 4 cores × 2
// hyperthreads. Its three performance regimes — parallel (threads ≤ cores),
// hardware multiplexing (cores < threads ≤ contexts, siblings share an L1),
// and software multiplexing (threads > contexts, the OS preempts) — all fall
// out of this model.
package topo

// Topology describes the simulated machine.
type Topology struct {
	// Cores is the number of physical cores.
	Cores int
	// ThreadsPerCore is the number of hardware contexts per core.
	ThreadsPerCore int

	// L1Lines is the number of cache lines a transaction's write set may
	// occupy when its core runs a single hardware thread (Haswell:
	// 32 KB / 64 B = 512).
	L1Lines int
	// ReadSetLines bounds a transaction's read set (reads are tracked
	// beyond L1 on real hardware, so this is larger).
	ReadSetLines int

	// SiblingEvictRate scales the probabilistic capacity-abort term: when
	// a core's sibling hardware thread is active, each basic block aborts
	// an in-flight transaction with probability
	// SiblingEvictRate × footprintLines ⁄ L1Lines — i.e. every sibling
	// cache fill evicts a tracked line with probability footprint/L1.
	// 1.0 is the physical value for a sibling that streams one line per
	// block through the shared L1.
	SiblingEvictRate float64

	// HTSlowdown is the extra time factor a thread pays while its
	// sibling hardware context is active (shared execution units): a
	// step of cost c costs c × (1 + HTSlowdown). 0.6 makes a fully
	// loaded core ~25% faster than a single hardware thread, the typical
	// hyperthreading yield.
	HTSlowdown float64
}

// Haswell8Way returns the paper's evaluation machine: 4 cores × 2
// hyperthreads with a 512-line transactional write capacity.
func Haswell8Way() Topology {
	return Topology{
		Cores:            4,
		ThreadsPerCore:   2,
		L1Lines:          512,
		ReadSetLines:     4096,
		SiblingEvictRate: 1.0,
		HTSlowdown:       0.6,
	}
}

// Contexts returns the total number of hardware contexts.
func (t Topology) Contexts() int { return t.Cores * t.ThreadsPerCore }

// CoreOf returns the physical core hosting hardware context hw.
// Contexts are numbered so that 0..Cores-1 land on distinct cores first,
// matching how benchmarks pin threads: with ≤ Cores threads there is no
// hyperthread sharing.
func (t Topology) CoreOf(hw int) int { return hw % t.Cores }

// HWContextOf returns the hardware context a software thread is pinned to.
// Threads beyond the context count share contexts round-robin and are
// subject to preemption by the scheduler.
func (t Topology) HWContextOf(thread int) int { return thread % t.Contexts() }
