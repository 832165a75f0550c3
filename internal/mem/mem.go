// Package mem implements the simulated machine's memory system: a flat
// word-addressable memory, a cache-line conflict table, and a best-effort
// hardware transactional memory in the style of Intel TSX.
//
// # Model
//
// Memory is an array of 64-bit words. Conflict detection happens at
// cache-line granularity (word.LineWords words per line). Each line has a
// reader bitmap (one bit per thread whose active transaction has read it)
// and at most one transactional writer.
//
// The machine is driven by a single-threaded discrete-event scheduler
// (internal/sched), so this package uses no host-level synchronization:
// simulated concurrency comes from the scheduler interleaving simulated
// threads between memory accesses. Every access is therefore atomic at the
// simulation level, which matches the word-atomicity of real hardware.
//
// # Transactional semantics
//
//   - Writes inside a transaction are buffered and invisible until commit
//     (lazy versioning, like a real HTM's L1 write set).
//   - Conflicts are detected eagerly with a requester-wins policy, matching
//     observed TSX behaviour: an access that conflicts with another
//     transaction's data set dooms that transaction immediately. The victim
//     observes its doom at its next access or block boundary.
//   - Strong isolation: plain (non-transactional) accesses participate in
//     conflict detection. A plain read of a line in a transaction's write
//     set dooms the transaction; a plain write dooms writers and readers.
//     This is the property StackTrack's scanner relies on (§5.6 of the
//     paper).
//   - Capacity: a transaction whose write set exceeds the L1 budget (or
//     whose read set exceeds the read-tracking budget) self-aborts. When the
//     sibling hyperthread of the transaction's core is active, budgets halve
//     and a probabilistic eviction term is applied per basic block by the
//     scheduler, reproducing the paper's hyperthreading regime.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"stacktrack/internal/metrics"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

// MaxThreads is the maximum number of simulated threads, bounded by the
// per-line reader bitmap width.
const MaxThreads = 64

// Pressure reports dynamic cache pressure for capacity decisions. The
// scheduler implements it; tests may stub it.
type Pressure interface {
	// SiblingActive reports whether the sibling hardware context of the
	// core running thread tid is currently occupied by a running thread.
	SiblingActive(tid int) bool
}

// noPressure is the default Pressure with no hyperthread contention.
type noPressure struct{}

func (noPressure) SiblingActive(int) bool { return false }

// Config parameterizes a Memory.
type Config struct {
	// Words is the size of the simulated memory in 64-bit words.
	Words int
	// Topology supplies transactional capacity budgets.
	Topology topo.Topology
	// Pressure supplies dynamic sibling-activity information; nil means
	// no hyperthread pressure.
	Pressure Pressure
	// Metrics is the registry this memory (and the layers built on top
	// of it, which obtain it via Memory.Metrics) records into. nil
	// creates a private registry, so standalone uses stay unchanged.
	Metrics *metrics.Registry
}

// Memory is the simulated memory system. All methods take the simulated
// thread id performing the access so conflicts can be attributed.
type Memory struct {
	words []uint64

	// lineReaders[l] has bit t set iff thread t's active transaction has
	// line l in its read set.
	lineReaders []uint64
	// lineWriter[l] is tid+1 of the transaction owning line l for write,
	// or 0.
	lineWriter []int32
	// lineSlot[l] is the index of line l in its write owner's Tx.lines;
	// it is meaningful only while lineWriter[l] != 0.
	lineSlot []int32

	// Coherence-cost model (MESI-flavoured): sharers[l] has bit t set iff
	// thread t has read line l since its last write; lastW[l] is tid+1 of
	// the last writer. A read by a non-sharer or a write by anyone while
	// other caches hold the line is a coherence miss the access layer
	// charges for.
	sharers []uint64
	lastW   []int32

	// backing keeps the block the six arrays above are carved from (see
	// newBacking) mapped for as long as the Memory is reachable; nil where
	// that block is on the Go heap.
	backing *mapping

	// hi is one past the highest address any access ever touched — a
	// monotone high-water mark. Snapshots copy only words[:hi] (and the
	// metadata lines covering them): simulated memory is sized generously
	// but used sparsely, and restore cost is what bounds fork throughput.
	hi uint64

	txs      [MaxThreads]*Tx
	liveTx   int // number of TxActive transactions (gates plain-op checks)
	topology topo.Topology
	pressure Pressure

	reg *metrics.Registry
	c   memCounters
	obs Observer

	// fastPlain caches "no live transaction, no observer": the single
	// branch the plain-access fast path tests. refreshFast recomputes it
	// at every liveTx/obs transition.
	fastPlain bool
}

// refreshFast recomputes the plain-access fast-path gate. Call after any
// change to liveTx or obs.
func (m *Memory) refreshFast() {
	m.fastPlain = m.liveTx == 0 && m.obs == nil
}

// New creates a Memory. It panics if the configuration is invalid, since a
// simulation cannot proceed without memory.
func New(cfg Config) *Memory {
	if cfg.Words <= 0 {
		cfg.Words = 1 << 22
	}
	if cfg.Topology.Cores == 0 {
		cfg.Topology = topo.Haswell8Way()
	}
	if cfg.Pressure == nil {
		cfg.Pressure = noPressure{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if m := takePooled(cfg.Words); m != nil {
		m.topology = cfg.Topology
		m.pressure = cfg.Pressure
		m.reg = cfg.Metrics
		m.c = newMemCounters(cfg.Metrics)
		m.refreshFast()
		return m
	}
	m := &Memory{
		topology: cfg.Topology,
		pressure: cfg.Pressure,
		reg:      cfg.Metrics,
		c:        newMemCounters(cfg.Metrics),
	}
	m.newBacking(cfg.Words, (cfg.Words+word.LineWords-1)/word.LineWords)
	m.refreshFast()
	return m
}

// newBacking carves the word array and the five line tables from one
// zeroed block, off the Go heap where the platform allows (zeroedBytes).
// A Memory is sized for the largest run (4M words and 512K lines, about
// 46 MiB) but a run touches a few megabytes of it. On the Go heap the
// whole size would count as live, and the GC, which lets garbage grow to
// about the live heap before it collects, would let each Memory carry as
// much again in garbage. The 8-byte tables come before the 4-byte ones,
// so every table is naturally aligned.
func (m *Memory) newBacking(words, lines int) {
	b, h := zeroedBytes(8*(words+2*lines) + 4*3*lines)
	m.backing = h
	off := 0
	u64 := func(n int) []uint64 {
		s := unsafe.Slice((*uint64)(unsafe.Pointer(&b[off])), n)
		off += 8 * n
		return s
	}
	i32 := func(n int) []int32 {
		s := unsafe.Slice((*int32)(unsafe.Pointer(&b[off])), n)
		off += 4 * n
		return s
	}
	m.words, m.lineReaders, m.sharers = u64(words), u64(lines), u64(lines)
	m.lineWriter, m.lineSlot, m.lastW = i32(lines), i32(lines), i32(lines)
}

// memPool holds released memories keyed by word count. A released Memory
// has been scrubbed back to the pristine zero state New would produce, so
// reuse is observationally identical to a fresh allocation — it only
// avoids the (large, mostly-untouched) backing allocations. Sweeps create
// one Memory per point; reuse removes that churn entirely. Each
// simulation is single-goroutine, but several run at once (a sweep's
// parallel points, concurrent explore workers) and share this pool, so
// it takes a host-side mutex.
var memPool struct {
	mu   sync.Mutex
	free map[int][]*Memory
}

func takePooled(words int) *Memory {
	memPool.mu.Lock()
	defer memPool.mu.Unlock()
	list := memPool.free[words]
	if len(list) == 0 {
		return nil
	}
	m := list[len(list)-1]
	memPool.free[words] = list[:len(list)-1]
	return m
}

// Release scrubs the memory back to its initial zero state and returns it
// to the package pool for a future New of the same size. Only the prefix
// below the high-water mark is nonzero, so the scrub is proportional to
// memory actually touched, not memory configured. The caller must be done
// with the Memory and everything built on it (allocator, transactions).
func (m *Memory) Release() {
	if m == nil {
		return
	}
	hi := int(m.hi)
	lines := (hi + word.LineWords - 1) / word.LineWords
	clear(m.words[:hi])
	clear(m.lineReaders[:lines])
	clear(m.lineWriter[:lines])
	clear(m.sharers[:lines])
	clear(m.lastW[:lines])
	m.hi = 0
	// Transaction descriptors stay with the Memory (their buffers are
	// reusable by construction); reset them to idle.
	for _, tx := range m.txs {
		if tx == nil {
			continue
		}
		tx.state = TxIdle
		tx.reason = NoAbort
		tx.readLines = tx.readLines[:0]
		tx.writeLines = tx.writeLines[:0]
		tx.lines = tx.lines[:0]
		tx.order = tx.order[:0]
	}
	m.liveTx = 0
	m.obs = nil
	m.pressure = noPressure{}
	m.refreshFast()
	memPool.mu.Lock()
	if memPool.free == nil {
		memPool.free = make(map[int][]*Memory)
	}
	memPool.free[len(m.words)] = append(memPool.free[len(m.words)], m)
	memPool.mu.Unlock()
}

// Metrics returns the registry this memory records into. The other
// layers (alloc, sched, core) fetch it from here so one registry spans
// a whole simulation instance without threading it through every
// constructor.
func (m *Memory) Metrics() *metrics.Registry { return m.reg }

// readTouch updates the coherence state for a read by tid and reports
// whether it missed (line not in tid's cache).
func (m *Memory) readTouch(tid int, l uint64) bool {
	bit := uint64(1) << uint(tid)
	if m.sharers[l]&bit != 0 || m.lastW[l] == int32(tid+1) {
		return false
	}
	m.sharers[l] |= bit
	m.c.coherenceMisses.Inc(tid)
	return true
}

// writeTouch updates the coherence state for a write by tid and reports
// whether acquiring ownership missed (invalidation of other caches).
func (m *Memory) writeTouch(tid int, l uint64) bool {
	bit := uint64(1) << uint(tid)
	hit := m.lastW[l] == int32(tid+1) && m.sharers[l]&^bit == 0
	m.lastW[l] = int32(tid + 1)
	m.sharers[l] = bit
	if !hit {
		m.c.coherenceMisses.Inc(tid)
	}
	return !hit
}

// SetPressure installs the dynamic pressure source (the scheduler calls this
// once threads exist).
func (m *Memory) SetPressure(p Pressure) {
	if p == nil {
		p = noPressure{}
	}
	m.pressure = p
}

// Size returns the memory size in words.
func (m *Memory) Size() int { return len(m.words) }

// Stats returns a snapshot of thread tid's statistics, assembled from
// the underlying metric lanes. The result is a copy: callers read it,
// they do not mutate memory state through it.
func (m *Memory) Stats(tid int) *Stats { return m.c.thread(tid) }

// TotalStats sums statistics across all threads.
func (m *Memory) TotalStats() Stats { return m.c.total() }

// ResetStats zeroes the memory layer's statistics (used between
// measurement phases). Only this layer's metrics are touched; other
// layers sharing the registry reset their own.
func (m *Memory) ResetStats() { m.c.reset() }

func (m *Memory) check(a word.Addr) {
	if uint64(a) >= uint64(len(m.words)) {
		panic(fmt.Sprintf("mem: address %#x out of range (%d words)", uint64(a), len(m.words)))
	}
	if uint64(a) >= m.hi {
		m.hi = uint64(a) + 1
	}
}

// ReadPlain performs a non-transactional read by thread tid. Under strong
// isolation it dooms any transaction holding the line in its write set
// (requester wins), then returns the committed value plus whether the read
// was a coherence miss.
func (m *Memory) ReadPlain(tid int, a word.Addr) (uint64, bool) {
	// Fast path: no live transaction (no strong-isolation dooming), no
	// observer (no analysis hook), and the address below the high-water
	// mark (bounds and watermark both already established). Identical
	// simulated effects to the general path below, minus dead branches.
	if m.fastPlain && uint64(a) < m.hi {
		m.c.plainReads.Inc(tid)
		return m.words[a], m.readTouch(tid, word.Line(a))
	}
	return m.readPlainSlow(tid, a)
}

func (m *Memory) readPlainSlow(tid int, a word.Addr) (uint64, bool) {
	m.check(a)
	m.c.plainReads.Inc(tid)
	l := word.Line(a)
	if m.liveTx > 0 {
		if w := m.lineWriter[l]; w != 0 && int(w-1) != tid {
			m.doom(int(w-1), Conflict)
		}
	}
	v, miss := m.words[a], m.readTouch(tid, l)
	if m.obs != nil {
		m.obs.PlainRead(tid, a)
	}
	return v, miss
}

// WritePlain performs a non-transactional write by thread tid, dooming any
// transactional writer and all transactional readers of the line. It
// reports whether acquiring the line missed.
func (m *Memory) WritePlain(tid int, a word.Addr, v uint64) bool {
	// Fast path: see ReadPlain.
	if m.fastPlain && uint64(a) < m.hi {
		m.c.plainWrites.Inc(tid)
		m.words[a] = v
		return m.writeTouch(tid, word.Line(a))
	}
	return m.writePlainSlow(tid, a, v)
}

func (m *Memory) writePlainSlow(tid int, a word.Addr, v uint64) bool {
	m.check(a)
	m.c.plainWrites.Inc(tid)
	l := word.Line(a)
	if m.liveTx > 0 {
		m.doomLineConflicts(tid, l)
	}
	m.words[a] = v
	miss := m.writeTouch(tid, l)
	if m.obs != nil {
		m.obs.PlainWrite(tid, a)
	}
	return miss
}

// CASPlain performs a non-transactional compare-and-swap by thread tid and
// reports whether the swap happened and whether the access missed.
// Conflicting transactions are doomed regardless of the outcome (the cache
// line is acquired for write either way).
func (m *Memory) CASPlain(tid int, a word.Addr, old, new uint64) (ok, miss bool) {
	m.check(a)
	m.c.plainReads.Inc(tid)
	m.c.plainWrites.Inc(tid)
	l := word.Line(a)
	if m.liveTx > 0 {
		m.doomLineConflicts(tid, l)
	}
	miss = m.writeTouch(tid, l)
	ok = m.words[a] == old
	if ok {
		m.words[a] = new
	}
	if m.obs != nil {
		m.obs.SyncRMW(tid, a, ok)
	}
	return ok, miss
}

// Peek reads a word without participating in conflict detection or
// statistics. It is intended for assertions, debugging, and the allocator's
// internal metadata walks — never for simulated program logic.
func (m *Memory) Peek(a word.Addr) uint64 {
	m.check(a)
	return m.words[a]
}

// Poke writes a word without conflict detection (initialization only).
func (m *Memory) Poke(a word.Addr, v uint64) {
	m.check(a)
	m.words[a] = v
}

// Zero sets words [a, a+n) to zero without conflict detection or
// statistics, as n Pokes of 0 would, with one bounds check. Nothing writes
// a word at or above the high-water mark before the mark passes it, and
// Release and RestoreState zero what lies above the mark they leave, so
// only the part of the range below the mark is cleared.
func (m *Memory) Zero(a word.Addr, n int) {
	if n <= 0 {
		return
	}
	hi := m.hi
	m.check(a + word.Addr(n-1))
	if uint64(a) < hi {
		clear(m.words[a:min(uint64(a)+uint64(n), hi)])
	}
}

// doomLineConflicts dooms every transaction (other than tid's) with line l
// in its data set, as a write-acquisition by tid would on real hardware.
func (m *Memory) doomLineConflicts(tid int, l uint64) {
	if w := m.lineWriter[l]; w != 0 && int(w-1) != tid {
		m.doom(int(w-1), Conflict)
	}
	if r := m.lineReaders[l]; r != 0 {
		self := uint64(1) << uint(tid)
		r &^= self
		for r != 0 {
			t := bits.TrailingZeros64(r)
			r &^= 1 << uint(t)
			m.doom(t, Conflict)
		}
	}
}

// doom condemns thread victim's active transaction with the given reason,
// releasing its line ownership immediately (its buffered writes were never
// visible). The victim unwinds at its next step.
func (m *Memory) doom(victim int, reason AbortReason) {
	tx := m.txs[victim]
	if tx == nil || tx.state != TxActive {
		return
	}
	tx.state = TxDoomed
	tx.reason = reason
	m.releaseLines(tx)
	m.liveTx--
	m.refreshFast()
}

// releaseLines clears the line table entries owned by tx.
func (m *Memory) releaseLines(tx *Tx) {
	bit := ^(uint64(1) << uint(tx.tid))
	for _, l := range tx.readLines {
		m.lineReaders[l] &= bit
	}
	owner := int32(tx.tid + 1)
	for _, l := range tx.writeLines {
		if m.lineWriter[l] == owner {
			m.lineWriter[l] = 0
		}
	}
	tx.readLines = tx.readLines[:0]
	tx.writeLines = tx.writeLines[:0]
}
