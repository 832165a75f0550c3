// Package cost defines the virtual-cycle cost model of the simulated
// machine. Every action a simulated thread performs advances its virtual
// clock by one of these constants; the benchmark harness converts virtual
// cycles to virtual seconds at ClockHz.
//
// Absolute values are synthetic. What matters — and what reproduces the
// paper's results — are the relative magnitudes:
//
//   - a memory fence or CAS is ~1.5–2 orders of magnitude more expensive
//     than a cache-hit load (David et al., SOSP'13, cited by the paper);
//   - a transaction commit (one fence) amortizes over a whole segment,
//     whereas hazard pointers pay a fence per traversed node;
//   - an abort wastes the segment's work plus a fixed penalty;
//   - a preemption quantum dwarfs everything else (milliseconds).
package cost

// Cycles is a duration in virtual CPU cycles.
type Cycles uint64

// ClockHz is the simulated core frequency used to convert cycles to seconds
// (the paper's Haswell runs at a comparable clock).
const ClockHz = 2_700_000_000

const (
	// Load is a cache-hit read of one simulated word.
	Load Cycles = 4
	// Store is a cache-hit write of one simulated word.
	Store Cycles = 4
	// Miss is the additional penalty of a coherence miss: reading a line
	// last written by another core, or acquiring write ownership of a
	// line another core holds (MESI invalidation / cache-to-cache
	// transfer).
	Miss Cycles = 120
	// Fence is a full memory fence (store-buffer drain).
	Fence Cycles = 80
	// CAS is a compare-and-swap, including its implicit fence.
	CAS Cycles = 60
	// AtomicAdd is a fetch-and-add, including its implicit fence.
	AtomicAdd Cycles = 50

	// Block is the base cost of executing one basic code block
	// (instruction issue, branch), excluding its memory accesses.
	Block Cycles = 8
	// Checkpoint is the split-checkpoint bookkeeping added to every basic
	// block on the StackTrack fast path: a counter increment and compare.
	Checkpoint Cycles = 2

	// TxBegin is the cost of starting a hardware transaction (XBEGIN).
	TxBegin Cycles = 25
	// TxCommit is the cost of committing one (XEND), including the fence.
	TxCommit Cycles = 30
	// TxAbort is the fixed penalty of an abort (pipeline flush, restore),
	// on top of the wasted segment work which the thread already paid.
	TxAbort Cycles = 150

	// Alloc is the cost of one allocation on the allocator fast path.
	Alloc Cycles = 110
	// Free is the cost of returning one object to the allocator.
	Free Cycles = 90

	// ScanWord is the per-word cost of the reclaiming thread scanning a
	// stack frame, register file, or reference set.
	ScanWord Cycles = 2

	// EpochTick is the per-operation timestamp update of the epoch scheme
	// (a plain store plus compiler ordering; no fence on TSO).
	EpochTick Cycles = 12

	// TimesliceQuantum is the on-CPU time between preemptions of an
	// oversubscribed thread (~1 ms).
	TimesliceQuantum Cycles = 2_700_000
	// ContextSwitch is the direct cost of being switched in/out.
	ContextSwitch Cycles = 8_000
)

// Seconds converts virtual cycles to virtual seconds.
func Seconds(c Cycles) float64 { return float64(c) / ClockHz }

// FromSeconds converts virtual seconds to cycles.
func FromSeconds(s float64) Cycles { return Cycles(s * ClockHz) }
