package mem

// Stats counts transactional-memory events across all threads. The
// benchmark harness reads them to regenerate the paper's Figure 3 (abort
// breakdown) and Figure 4 (split behaviour). The hot path increments the
// fields of the Memory's own Stats directly.
type Stats struct {
	TxBegins         uint64 // transactions started (including retries)
	Commits          uint64 // transactions committed
	ConflictAborts   uint64 // data-conflict aborts suffered
	CapacityAborts   uint64 // capacity / sibling-eviction aborts
	PreemptAborts    uint64 // context-switch aborts
	ExplicitAborts   uint64 // programmatic aborts
	PlainReads       uint64 // non-transactional word reads
	PlainWrites      uint64 // non-transactional word writes
	TxReads          uint64 // transactional word reads
	TxWrites         uint64 // transactional word writes
	LinesRead        uint64 // distinct lines added to read sets
	LinesWritten     uint64 // distinct lines added to write sets
	CommittedActions uint64 // word accesses inside committed transactions
	CoherenceMisses  uint64 // cache-to-cache transfers / invalidations
}

// Aborts returns the total number of aborts of any kind.
func (s *Stats) Aborts() uint64 {
	return s.ConflictAborts + s.CapacityAborts + s.PreemptAborts + s.ExplicitAborts
}
