package core

// Scan elision driven by static dataflow facts. A track mask (computed by
// internal/prog/dataflow from per-block effect annotations) names the frame
// slots and registers of an operation that can ever hold a live heap
// pointer. During SCAN_AND_FREE the scanner looks up the victim's current
// operation in the activity array and skips:
//
//   - stack words below the operation's frame (garbage left by popped
//     frames of completed operations — nothing lives there by definition),
//   - frame slots the mask proves are never a live pointer (scalars,
//     must-killed entry garbage, dead recordings),
//   - registers the mask excludes (the driver convention seeds R0-R3 with
//     scalar arguments; R4-R15 are never written by any shipped op).
//
// Soundness leans on the same protocol the full scan uses: a reference the
// victim holds continuously is either visible in a tracked word or the
// victim's split/oper counters move and the inspection restarts. Slow-path
// reference sets are never elided — they are the explicit spill area.
//
// The mask applies across an operation switch mid-scan: a word elided
// under operation A's mask cannot hold a continuously-held reference to a
// retired node, and an operation B starting later cannot reach a retired
// (unlinked) node at all, so B needs no words preserved on its behalf.

import (
	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/sched"
)

// SetMasks installs per-operation track masks keyed by operation ID. A nil
// or missing entry means the operation is scanned in full. Masks are
// consulted only by scans that start after the call; installing them at
// setup (before threads run) is the intended use.
func (st *StackTrack) SetMasks(masks map[int]dataflow.TrackMask) {
	st.masks = make(map[int]*dataflow.TrackMask, len(masks))
	for id, mk := range masks {
		st.masks[id] = &mk
	}
}

// victimMask resolves the scan mask for victim v given its sampled
// activity word and exposed stack pointer. It returns nil (scan
// everything) when no mask is installed for the running operation or the
// frame geometry does not line up (no frame pushed yet).
func (st *StackTrack) victimMask(act uint64, sp int) (m *dataflow.TrackMask, fbase int) {
	if st.masks == nil || act == 0 {
		return nil, 0
	}
	mk := st.masks[int(act)-1]
	if mk == nil {
		return nil, 0
	}
	fbase = sp - mk.FrameWords
	if fbase < 0 || len(mk.Frame) != mk.FrameWords {
		return nil, 0
	}
	return mk, fbase
}

// maskTracksStack reports whether stack word pos must be inspected under
// mask m with the frame based at fbase. Words below the frame are popped-
// frame garbage and never inspected.
func maskTracksStack(m *dataflow.TrackMask, fbase, pos int) bool {
	if pos < fbase {
		return false
	}
	i := pos - fbase
	if i >= len(m.Frame) {
		return true // beyond the declared frame: scan conservatively
	}
	return m.Frame[i]
}

// maskTracksReg reports whether register r must be inspected.
func maskTracksReg(m *dataflow.TrackMask, r int) bool {
	if r < 0 || r >= sched.NumRegs {
		return true
	}
	return m.Regs[r]
}
