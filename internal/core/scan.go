package core

// SCAN_AND_FREE (Algorithm 1): for every pointer in the free set, inspect
// the stack, registers, and — when the slow path is active anywhere — the
// reference set of every thread in the activity array. A pointer seen
// nowhere is freed; a pointer still referenced stays in the free set for a
// later scan.
//
// The scan runs in chunks of ScanChunkWords so the scheduler interleaves
// other threads between chunks; the split-counter / operation-counter retry
// protocol (Alg. 1 lines 14–29) therefore executes against genuinely
// concurrent segment commits, exactly as in the paper.
//
// Both scan variants — the per-pointer scan below and the hashed one of
// §5.2 (hashscan.go) — drive the same victimWalk and differ only in the
// wordSink that consumes each scanned word.

import (
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

const (
	phasePickVictim = iota
	phaseStack
	phaseRegs
	phaseRefs
	phaseVerify
)

// scanner is a resumable SCAN_AND_FREE state machine: the per-pointer scan
// below (Algorithm 1 as written) or the hashed single-pass variant (§5.2).
type scanner interface {
	step(t *sched.Thread) bool
}

// wordSink consumes the words a victimWalk inspects. visit returns true to
// stop the walk on the current victim (a hit).
type wordSink interface {
	visit(w uint64) bool
}

// walkResult is what one victimWalk.inspect chunk produced.
type walkResult uint8

const (
	walkBusy walkResult = iota // a chunk ran; the pass is not over
	walkHit                    // the sink stopped the walk on the current victim
	walkDone                   // every victim has been inspected
)

// victimWalk is one resumable pass over every victim's exposed stack,
// registers and (slow path active) reference set, with the Alg. 1 line-27
// verify-and-restart step. It also carries the scan's free-set snapshot
// and completion flag, which both variants share.
type victimWalk struct {
	st      *StackTrack
	ptrs    []word.Addr
	victims []*sched.Thread

	slowActive bool
	ended      bool

	ti      int
	phase   int
	operPre uint64
	htmPre  uint64
	sp      int
	pos     int
	refsLen int

	// act is the victim's sampled activity word. mask is its current-
	// operation track mask (nil: scan all) and fbase the stack index of
	// the operation's frame base, both derived from act and sp.
	act   uint64
	mask  *dataflow.TrackMask
	fbase int
}

// startScan returns the configured scan state machine over a snapshot of
// the thread's free set.
func (st *StackTrack) startScan(t *sched.Thread) scanner {
	if st.cfg.HashedScan {
		return st.startHashedScan(t)
	}
	return st.startPtrScan(t)
}

// newWalk snapshots the thread's free set into its borrowed pointer
// buffer and records the scan start.
func (st *StackTrack) newWalk(t *sched.Thread) victimWalk {
	ts := st.state(t)
	w := victimWalk{
		st:         st,
		ptrs:       append(ts.scanPtrs[:0], ts.freeSet...),
		victims:    st.sc.Threads(),
		slowActive: st.slowCount > 0,
	}
	ts.scanPtrs = nil
	ts.freeSet = ts.freeSet[:0]
	st.c.scans.Inc(t.ID)
	t.Trace(sched.TraceScanStart, uint64(len(w.ptrs)))
	return w
}

// rewind starts a fresh pass from the first victim.
func (w *victimWalk) rewind() {
	w.ti = 0
	w.phase = phasePickVictim
}

// sampleFrame reads victim v's split counter and exposed stack pointer and
// rewinds to the bottom of its stack.
func (w *victimWalk) sampleFrame(t, v *sched.Thread) {
	w.htmPre = t.LoadPlain(v.SplitsAddr())
	w.sp = min(int(t.LoadPlain(v.SPAddr())), sched.StackWords)
	w.pos = 0
	w.phase = phaseStack
}

// setMask resolves the track mask for the victim's sampled activity word
// act and the sampled stack pointer.
func (w *victimWalk) setMask(act uint64) {
	w.act = act
	w.mask, w.fbase = w.st.victimMask(act, w.sp)
}

// inspect advances the walk by one chunk, handing every scanned word to
// sink.
func (w *victimWalk) inspect(t *sched.Thread, sink wordSink) walkResult {
	if w.ti >= len(w.victims) {
		return walkDone
	}
	v := w.victims[w.ti]
	c := &w.st.c
	hit := false

	switch w.phase {
	case phasePickVictim:
		// Idle threads hold no operation-local references; skip them
		// (§6 "a scan does not always need to consider all threads").
		act := t.LoadPlain(v.ActivityAddr())
		if v.Done() || act == 0 {
			w.ti++
			return walkBusy
		}
		w.operPre = t.LoadPlain(v.OperCntAddr())
		w.sampleFrame(t, v)
		w.setMask(act)
		c.scanTargets.Inc(t.ID)

	case phaseStack:
		end := min(w.pos+w.st.cfg.ScanChunkWords, w.sp)
		loaded := 0
		for ; w.pos < end; w.pos++ {
			if w.mask != nil && !maskTracksStack(w.mask, w.fbase, w.pos) {
				c.elidedWords.Inc(t.ID)
				continue
			}
			x := t.LoadPlain(v.StackBase + word.Addr(w.pos))
			loaded++
			c.scannedWords.Inc(t.ID)
			c.scannedDepth.Inc(t.ID)
			if sink.visit(x) {
				hit = true
				break
			}
		}
		// Without a mask the seed behavior is preserved: a full chunk is
		// charged even when clamped. With one, only inspected words cost.
		if w.mask != nil {
			chargeWords(t, loaded)
		} else {
			chargeWords(t, w.st.cfg.ScanChunkWords)
		}
		if !hit && w.pos >= w.sp {
			w.phase = phaseRegs
		}

	case phaseRegs:
		loaded := 0
		for i := 0; i < sched.NumRegs; i++ {
			if w.mask != nil && !maskTracksReg(w.mask, i) {
				c.elidedWords.Inc(t.ID)
				continue
			}
			x := t.LoadPlain(v.RegsBase + word.Addr(i))
			loaded++
			c.scannedWords.Inc(t.ID)
			if sink.visit(x) {
				hit = true
				break
			}
		}
		if w.mask != nil {
			chargeWords(t, loaded)
		} else {
			chargeWords(t, sched.NumRegs)
		}
		if hit {
			break
		}
		if w.slowActive {
			w.refsLen = min(int(t.LoadPlain(v.RefsLenAddr())), sched.RefsWords)
			w.pos = 0
			w.phase = phaseRefs
		} else {
			w.phase = phaseVerify
		}

	case phaseRefs:
		end := min(w.pos+w.st.cfg.ScanChunkWords, w.refsLen)
		for ; w.pos < end; w.pos++ {
			x := t.LoadPlain(v.RefsBase + word.Addr(w.pos))
			c.scannedWords.Inc(t.ID)
			if sink.visit(x) {
				hit = true
				break
			}
		}
		chargeWords(t, w.st.cfg.ScanChunkWords)
		if !hit && w.pos >= w.refsLen {
			w.phase = phaseVerify
		}

	case phaseVerify:
		htmPost := t.LoadPlain(v.SplitsAddr())
		operPost := t.LoadPlain(v.OperCntAddr())
		if w.operPre == operPost && w.htmPre != htmPost {
			// The victim committed a segment while we were looking: its
			// stack may have changed under us — restart the inspection of
			// this thread (Alg. 1 line 27). Whatever the sink took from the
			// torn inspection stays: it can only defer a free.
			c.scanRestarts.Inc(t.ID)
			w.sampleFrame(t, v)
			// Same operation invocation (operPre == operPost), but the
			// frame geometry may have changed with sp.
			w.setMask(t.LoadPlain(v.ActivityAddr()))
			return walkBusy
		}
		w.ti++
		w.phase = phasePickVictim
	}
	if hit {
		return walkHit
	}
	return walkBusy
}

// scanState is the per-pointer (Algorithm 1) scan: one victim walk per
// free-set pointer, stopped at the first word that references it.
type scanState struct {
	victimWalk
	found []bool
	pi    int
	freed uint64
}

// startPtrScan prepares the per-pointer (Algorithm 1) scan, borrowing the
// thread's scratch buffers instead of allocating per scan.
func (st *StackTrack) startPtrScan(t *sched.Thread) *scanState {
	ts := st.state(t)
	n := len(ts.freeSet)
	found := ts.scanFound
	if cap(found) < n {
		found = make([]bool, n)
	}
	found = found[:n]
	clear(found)
	ts.scanFound = nil
	return &scanState{victimWalk: st.newWalk(t), found: found}
}

// matches reports whether scanned word w references object ptr: either
// directly (possibly with a mark bit) or through an interior pointer, which
// the allocator's range query canonicalizes (§5.5).
func (s *scanState) matches(w uint64, ptr word.Addr) bool {
	p := word.Ptr(w)
	if p == ptr {
		return true
	}
	if os, ok := s.st.al.ObjectStart(p); ok && os == ptr {
		return true
	}
	return false
}

// visit is the per-pointer sink: a word referencing the current pointer
// stops the walk.
func (s *scanState) visit(w uint64) bool {
	return s.matches(w, s.ptrs[s.pi])
}

// step advances the scan by one chunk. It returns true when the whole scan
// has completed (all pointers dispatched).
func (s *scanState) step(t *sched.Thread) bool {
	if s.pi >= len(s.ptrs) {
		s.end(t)
		return true
	}
	switch s.inspect(t, s) {
	case walkHit:
		s.markFound(t)
	case walkDone:
		s.finishPtr(t)
		if s.pi >= len(s.ptrs) {
			s.end(t)
			return true
		}
	}
	return false
}

// markFound records that ptr is still referenced somewhere: one live
// reference is enough to defer the free, so the pointer returns to the free
// set for a later scan and the scan advances to the next pointer.
func (s *scanState) markFound(t *sched.Thread) {
	s.found[s.pi] = true
	ts := s.st.state(t)
	s.st.c.falseHeld.Inc(t.ID)
	ts.freeSet = append(ts.freeSet, s.ptrs[s.pi])
	s.pi++
	s.rewind()
}

// finishPtr completes the current pointer after every victim was inspected
// without a hit: the object is provably unreferenced and is freed.
func (s *scanState) finishPtr(t *sched.Thread) {
	t.FreeNow(s.ptrs[s.pi])
	s.st.c.freed.Inc(t.ID)
	s.freed++
	s.pi++
	s.rewind()
}

// end emits the scan-completion event exactly once and returns the
// borrowed scratch buffers to the thread's state.
func (s *scanState) end(t *sched.Thread) {
	if !s.ended {
		s.ended = true
		t.Trace(sched.TraceScanEnd, s.freed)
		ts := s.st.state(t)
		ts.scanPtrs, ts.scanFound = s.ptrs[:0], s.found[:0]
	}
}

// scanAndFreeSync runs a complete scan without yielding — used by Drain at
// teardown, when interleaving no longer matters.
func (st *StackTrack) scanAndFreeSync(t *sched.Thread) {
	s := st.startScan(t)
	for !s.step(t) {
	}
}
