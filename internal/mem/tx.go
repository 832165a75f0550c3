package mem

import (
	"fmt"
	"math/bits"

	"stacktrack/internal/word"
)

// maxTxWords caps a transaction's buffered words: once it holds that many,
// any further store is a capacity abort. It exceeds the largest write set a
// Haswell-sized L1 budget allows (L1Lines lines × LineWords words), so only
// a custom topology with a larger budget reaches it.
const maxTxWords = 1 << 13

// lineBuf buffers one cache line the transaction owns for write: its
// speculative words and which of them have been stored.
type lineBuf struct {
	line  uint64
	mask  uint8 // bit i set iff words[i] holds a buffered store
	words [word.LineWords]uint64
}

// Tx is a hardware-transaction descriptor. A thread owns at most one at a
// time. Descriptors are reused across transactions to stay allocation-free
// on the hot path.
type Tx struct {
	tid    int
	state  TxState
	reason AbortReason

	readLines  []uint64
	writeLines []uint64

	// The speculative store buffer, kept like a real HTM's L1 write set:
	// lines[i] buffers the i-th line acquired for write, and
	// Memory.lineSlot maps an owned line back to its index. order lists
	// the buffered words in first-store order, each as index<<LineShift
	// | word offset; it feeds the committed-action count and snapshots.
	// Both survive a doom or commit until the next Begin.
	lines []lineBuf
	order []int32
}

// Tid returns the owning thread id.
func (tx *Tx) Tid() int { return tx.tid }

// Active reports whether the transaction is running and not doomed.
func (tx *Tx) Active() bool { return tx.state == TxActive }

// Doomed reports whether the transaction has been condemned, and by what.
func (tx *Tx) Doomed() (bool, AbortReason) { return tx.state == TxDoomed, tx.reason }

// Footprint returns the number of distinct cache lines in the data set.
func (tx *Tx) Footprint() int { return len(tx.readLines) + len(tx.writeLines) }

// Begin starts a hardware transaction for thread tid. It panics if the
// thread already has an active transaction (a simulation bug, not a
// recoverable condition).
func (m *Memory) Begin(tid int) *Tx {
	if old := m.txs[tid]; old != nil && old.state == TxActive {
		panic(fmt.Sprintf("mem: thread %d nested Begin", tid))
	}
	tx := m.txs[tid]
	if tx == nil {
		tx = &Tx{
			tid:        tid,
			readLines:  make([]uint64, 0, 512),
			writeLines: make([]uint64, 0, 128),
			lines:      make([]lineBuf, 0, 32),
			order:      make([]int32, 0, 256),
		}
		m.txs[tid] = tx
	}
	tx.state = TxActive
	tx.reason = NoAbort
	tx.lines = tx.lines[:0]
	tx.order = tx.order[:0]
	m.liveTx++
	m.refreshFast()
	m.c.txBegins.Inc(tid)
	if m.obs != nil {
		m.obs.TxBegin(tid)
	}
	return tx
}

// writeCap returns the write-set line budget for thread tid, halved under
// sibling hyperthread pressure.
func (m *Memory) writeCap(tid int) int {
	c := m.topology.L1Lines
	if m.pressure.SiblingActive(tid) {
		c /= 2
	}
	return c
}

// readCap returns the read-set line budget for thread tid.
func (m *Memory) readCap(tid int) int {
	c := m.topology.ReadSetLines
	if m.pressure.SiblingActive(tid) {
		c /= 2
	}
	return c
}

// TxRead performs a transactional read. It returns the value, whether the
// access was a coherence miss, and NoAbort on success; on a self-abort
// (capacity) it returns the reason, and the caller must unwind. Conflicting
// transactional writers are doomed (requester wins), so a live transaction
// never waits.
func (m *Memory) TxRead(tx *Tx, a word.Addr) (uint64, bool, AbortReason) {
	m.check(a)
	if tx.state != TxActive {
		return 0, false, tx.reason
	}
	m.c.txReads.Inc(tx.tid)
	l := word.Line(a)
	if m.lineWriter[l] == int32(tx.tid+1) { // store-to-load forwarding
		b := &tx.lines[m.lineSlot[l]]
		if off := a & (word.LineWords - 1); b.mask&(1<<off) != 0 {
			return b.words[off], false, NoAbort
		}
	}
	bit := uint64(1) << uint(tx.tid)
	if m.lineReaders[l]&bit == 0 && m.lineWriter[l] != int32(tx.tid+1) {
		// New line for this transaction: check capacity, then conflicts.
		if len(tx.readLines) >= m.readCap(tx.tid) {
			m.selfAbort(tx, Capacity)
			return 0, false, Capacity
		}
		if w := m.lineWriter[l]; w != 0 {
			m.doom(int(w-1), Conflict)
		}
		m.lineReaders[l] |= bit
		tx.readLines = append(tx.readLines, l)
		m.c.linesRead.Inc(tx.tid)
	}
	v, miss := m.words[a], m.readTouch(tx.tid, l)
	if m.obs != nil {
		m.obs.TxRead(tx.tid, a)
	}
	return v, miss, NoAbort
}

// TxWrite performs a transactional (buffered) write. On a self-abort it
// returns the reason. Conflicting readers and writers are doomed. The
// ownership acquisition (RFO) happens eagerly, so the coherence miss is
// reported at the first write to the line, as on real hardware.
func (m *Memory) TxWrite(tx *Tx, a word.Addr, v uint64) (bool, AbortReason) {
	m.check(a)
	if tx.state != TxActive {
		return false, tx.reason
	}
	m.c.txWrites.Inc(tx.tid)
	l := word.Line(a)
	miss := false
	if m.lineWriter[l] != int32(tx.tid+1) {
		if len(tx.writeLines) >= m.writeCap(tx.tid) {
			m.selfAbort(tx, Capacity)
			return false, Capacity
		}
		m.doomLineConflicts(tx.tid, l)
		m.lineWriter[l] = int32(tx.tid + 1)
		m.lineSlot[l] = int32(len(tx.lines))
		tx.writeLines = append(tx.writeLines, l)
		tx.lines = append(tx.lines, lineBuf{line: l})
		m.c.linesWritten.Inc(tx.tid)
		miss = m.writeTouch(tx.tid, l)
	}
	if len(tx.order) >= maxTxWords {
		m.selfAbort(tx, Capacity)
		return false, Capacity
	}
	tx.store(m.lineSlot[l], a, v)
	if m.obs != nil {
		m.obs.TxWrite(tx.tid, a)
	}
	return miss, NoAbort
}

// store buffers v for address a on the transaction's i-th written line.
func (tx *Tx) store(i int32, a word.Addr, v uint64) {
	b := &tx.lines[i]
	off := a & (word.LineWords - 1)
	if b.mask&(1<<off) == 0 {
		b.mask |= 1 << off
		tx.order = append(tx.order, i<<word.LineShift|int32(off))
	}
	b.words[off] = v
}

// selfAbort condemns the transaction from within (capacity, explicit,
// preemption) and releases its lines.
func (m *Memory) selfAbort(tx *Tx, reason AbortReason) {
	if tx.state != TxActive {
		return
	}
	tx.state = TxDoomed
	tx.reason = reason
	m.releaseLines(tx)
	m.liveTx--
	m.refreshFast()
}

// AbortTx explicitly aborts thread tid's active transaction (if any) with
// the given reason — used for XABORT and for preemption clearing the cache.
func (m *Memory) AbortTx(tid int, reason AbortReason) {
	tx := m.txs[tid]
	if tx == nil || tx.state != TxActive {
		return
	}
	m.selfAbort(tx, reason)
}

// Evict applies the probabilistic sibling-pressure eviction: it dooms the
// transaction with a capacity abort. The scheduler decides when to call it.
func (m *Memory) Evict(tx *Tx) {
	m.selfAbort(tx, Capacity)
}

// FinishAbort acknowledges a doomed transaction: the owning thread calls it
// while unwinding. It records statistics and retires the descriptor.
// It returns the abort reason.
func (m *Memory) FinishAbort(tx *Tx) AbortReason {
	if tx.state == TxActive {
		// The caller decided to abort before any doom arrived.
		m.selfAbort(tx, Explicit)
	}
	reason := tx.reason
	switch reason {
	case Conflict:
		m.c.abortsConflict.Inc(tx.tid)
	case Capacity:
		m.c.abortsCapacity.Inc(tx.tid)
	case Preempt:
		m.c.abortsPreempt.Inc(tx.tid)
	default:
		m.c.abortsExplicit.Inc(tx.tid)
	}
	tx.state = TxIdle
	return reason
}

// Commit attempts to commit the transaction: on success the buffered writes
// become visible atomically and it returns NoAbort. If the transaction was
// doomed, nothing is written and the reason is returned; the caller must
// then call FinishAbort.
func (m *Memory) Commit(tx *Tx) AbortReason {
	if tx.state != TxActive {
		return tx.reason
	}
	for i := range tx.lines {
		b := &tx.lines[i]
		base := b.line << word.LineShift
		for mask := b.mask; mask != 0; mask &= mask - 1 {
			off := bits.TrailingZeros8(mask)
			m.words[base+uint64(off)] = b.words[off]
		}
	}
	m.c.committedActions.Add(tx.tid, uint64(len(tx.order)))
	m.releaseLines(tx)
	m.liveTx--
	m.refreshFast()
	tx.state = TxIdle
	m.c.commits.Inc(tx.tid)
	if m.obs != nil {
		m.obs.TxCommit(tx.tid)
	}
	return NoAbort
}

// CurrentTx returns thread tid's transaction descriptor if one is active or
// doomed-but-unacknowledged, else nil.
func (m *Memory) CurrentTx(tid int) *Tx {
	tx := m.txs[tid]
	if tx == nil || tx.state == TxIdle {
		return nil
	}
	return tx
}
