// Snapshot-state support (internal/snap): State captures every mutable
// word of the memory system — committed memory, the transactional line
// tables, the coherence model, and each thread's in-flight transaction
// (including its buffered, not-yet-visible writes in program order), and
// the event counters. Configuration-derived fields (topology, pressure)
// are not part of the state: a restore target is built from the same Config
// and already has them.

package mem

import "stacktrack/internal/word"

// TxWriteState is one buffered speculative store, in insertion order.
type TxWriteState struct {
	Addr word.Addr
	Val  uint64
}

// TxDescState is one thread's transaction descriptor.
type TxDescState struct {
	Tid    int
	State  TxState
	Reason AbortReason

	ReadLines  []uint64
	WriteLines []uint64
	Writes     []TxWriteState // speculative stores, oldest first
}

// State is a Memory's complete mutable state. All slices are copies; a
// State never aliases live storage, so it can be restored into any number
// of Memory instances (in-process forking).
//
// The copies are sparse: only the touched prefix (the high-water mark of
// every access the Memory ever served) is stored; everything above it is
// still in its initial zero state and is reconstructed on restore. This is
// what makes per-candidate forking cheap — explore-sized runs use tens of
// kilobytes out of a multi-megabyte address space.
type State struct {
	// TotalWords is the full memory size the state came from; a restore
	// target must match it.
	TotalWords int
	Words      []uint64 // words[:hi], the touched prefix

	// Per-line metadata covering the touched prefix's lines.
	LineReaders []uint64
	LineWriter  []int32
	Sharers     []uint64
	LastW       []int32

	// Txs holds descriptors for threads that have ever begun a
	// transaction; idle descriptors are included so descriptor reuse
	// stays allocation-free after a restore.
	Txs []TxDescState

	Stats Stats
}

// SaveState copies out the complete mutable state.
func (m *Memory) SaveState() *State {
	hi := int(m.hi)
	lines := (hi + word.LineWords - 1) / word.LineWords
	s := &State{
		TotalWords:  len(m.words),
		Words:       append([]uint64(nil), m.words[:hi]...),
		LineReaders: append([]uint64(nil), m.lineReaders[:lines]...),
		LineWriter:  append([]int32(nil), m.lineWriter[:lines]...),
		Sharers:     append([]uint64(nil), m.sharers[:lines]...),
		LastW:       append([]int32(nil), m.lastW[:lines]...),
		Stats:       m.stats,
	}
	for tid := 0; tid < MaxThreads; tid++ {
		tx := m.txs[tid]
		if tx == nil {
			continue
		}
		d := TxDescState{
			Tid:        tid,
			State:      tx.state,
			Reason:     tx.reason,
			ReadLines:  append([]uint64(nil), tx.readLines...),
			WriteLines: append([]uint64(nil), tx.writeLines...),
		}
		for _, e := range tx.order {
			b := &tx.lines[e>>word.LineShift]
			off := e & (word.LineWords - 1)
			a := word.Addr(b.line<<word.LineShift | uint64(off))
			d.Writes = append(d.Writes, TxWriteState{Addr: a, Val: b.words[off]})
		}
		s.Txs = append(s.Txs, d)
	}
	return s
}

// RestoreState overwrites the memory with the saved state. The Memory must
// have been built from the same Config (same word count and topology); the
// word count is checked because a mismatch would corrupt silently.
func (m *Memory) RestoreState(s *State) {
	if s.TotalWords != len(m.words) {
		panic("mem: RestoreState word-count mismatch (different Config?)")
	}
	// Copy the saved prefix, then zero whatever the target itself touched
	// above it — everything beyond max(both marks) is zero on both sides.
	copy(m.words, s.Words)
	for i := len(s.Words); i < int(m.hi); i++ {
		m.words[i] = 0
	}
	lines := len(s.LineReaders)
	hiLines := (int(m.hi) + word.LineWords - 1) / word.LineWords
	copy(m.lineReaders, s.LineReaders)
	copy(m.lineWriter, s.LineWriter)
	copy(m.sharers, s.Sharers)
	copy(m.lastW, s.LastW)
	for l := lines; l < hiLines; l++ {
		m.lineReaders[l] = 0
		m.lineWriter[l] = 0
		m.sharers[l] = 0
		m.lastW[l] = 0
	}
	m.hi = uint64(len(s.Words))
	m.stats = s.Stats

	m.txs = [MaxThreads]*Tx{}
	m.liveTx = 0
	for i := range s.Txs {
		d := &s.Txs[i]
		tx := &Tx{
			tid:        d.Tid,
			state:      d.State,
			reason:     d.Reason,
			readLines:  append(make([]uint64, 0, 512), d.ReadLines...),
			writeLines: append(make([]uint64, 0, 128), d.WriteLines...),
			lines:      make([]lineBuf, 0, 32),
			order:      make([]int32, 0, 256),
		}
		// Rebuild the buffer in store order, so lines come back in
		// acquisition order. Only an active transaction owns its lines;
		// a doomed or idle one's may belong to another transaction now.
		for _, w := range d.Writes {
			l := word.Line(w.Addr)
			i := int32(len(tx.lines) - 1)
			for i >= 0 && tx.lines[i].line != l {
				i--
			}
			if i < 0 {
				i = int32(len(tx.lines))
				tx.lines = append(tx.lines, lineBuf{line: l})
				if tx.state == TxActive {
					m.lineSlot[l] = i
				}
			}
			tx.store(i, w.Addr, w.Val)
		}
		m.txs[d.Tid] = tx
		if tx.state == TxActive {
			m.liveTx++
		}
	}
	m.refreshFast()
}
