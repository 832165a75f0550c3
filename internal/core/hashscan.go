package core

// The free-procedure optimization of §5.2: instead of rescanning every
// thread's stack once per pointer in the free set (O(ptrs × stacks)), scan
// each thread once, hashing every reference it exposes, then test each
// free-set pointer against the hash set (O(stacks + ptrs)).
//
// The scan-consistency protocol is unchanged (it is the same victimWalk):
// a victim that commits a segment mid-inspection is re-inspected. Entries
// hashed from a torn inspection are kept — a stale entry can only defer a
// free, never allow an unsafe one.
//
// The paper found this optimization did not pay off at its scan rates
// (the cost is amortized over MaxFree frees); the ablation-scan experiment
// reproduces exactly that comparison.

import (
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// hashedScanState is the resumable state of one hashed SCAN_AND_FREE: a
// single victim walk whose sink hashes every scanned word.
type hashedScanState struct {
	victimWalk

	// held collects the canonicalized object starts referenced anywhere.
	held map[word.Addr]struct{}
}

// startHashedScan snapshots the free set and prepares the state machine,
// borrowing the thread's scratch buffers instead of allocating per scan.
func (st *StackTrack) startHashedScan(t *sched.Thread) *hashedScanState {
	ts := st.state(t)
	held := ts.scanHeld
	if held == nil {
		held = make(map[word.Addr]struct{}, 64)
	}
	clear(held)
	ts.scanHeld = nil
	return &hashedScanState{victimWalk: st.newWalk(t), held: held}
}

// visit is the §5.2 sink: it canonicalizes one scanned word into the held
// set and never stops the walk.
func (s *hashedScanState) visit(w uint64) bool {
	if os, ok := s.st.al.ObjectStart(word.Ptr(w)); ok {
		s.held[os] = struct{}{}
	}
	return false
}

// step advances the scan by one chunk; true when complete.
func (s *hashedScanState) step(t *sched.Thread) bool {
	if s.inspect(t, s) != walkDone {
		return false
	}
	if !s.ended {
		s.ended = true
		s.finish(t)
	}
	return true
}

// finish frees every pointer not present in the hash set.
func (s *hashedScanState) finish(t *sched.Thread) {
	ts := s.st.state(t)
	var freed uint64
	for _, p := range s.ptrs {
		if _, live := s.held[p]; live {
			s.st.stats.FalseHeld++
			ts.freeSet = append(ts.freeSet, p)
			continue
		}
		t.FreeNow(p)
		s.st.stats.Freed++
		freed++
	}
	t.Trace(sched.TraceScanEnd, freed)
	ts.scanPtrs, ts.scanHeld = s.ptrs[:0], s.held
}
