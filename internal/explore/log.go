package explore

// Schedule logs: the record/replay layer. A recorded run stores only the
// scheduling decisions that *deviated* from the scheduler's built-in
// virtual-time rule, keyed by decision number. Everything else about the
// simulation is deterministic, so (config, strategy seed, deviations) is a
// complete, compact, bit-exact description of an execution — small enough
// to commit as a regression artifact, structured enough for ddmin to chew
// on.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"stacktrack/internal/mem"
	"stacktrack/internal/sched"
)

// Decision is one recorded deviation from the default scheduling rule at
// decision number N (the N-th scheduler loop iteration of the run).
//
// A random walk deviates at about three in four of a run's decisions, so
// each field is as narrow as its range allows, 16 bytes per entry: Pick
// indexes one of at most 64 hardware contexts, and Tid names one of at
// most mem.MaxThreads threads. encoding/json writes every field as a
// plain number, so the widths do not show in schedule artifacts.
type Decision struct {
	// N is the decision number the deviation applies to.
	N uint64 `json:"n"`
	// Pick, when >= 0, overrides the context choice: the index into that
	// iteration's runnable-candidate list. -1 leaves the default pick.
	Pick int32 `json:"pick"`
	// Pre overrides the preemption decision: 1 forces a context switch,
	// 0 suppresses one the quantum would have made, -1 leaves the default.
	Pre int8 `json:"pre"`
	// Tid records which thread the decision affected when it was first
	// recorded — informational only (narratives); replay ignores it.
	Tid int16 `json:"tid,omitempty"`
}

// Thread ids are stored as int16 in Decision and Applied: a negative
// array length here fails the build should mem.MaxThreads outgrow them.
var _ [math.MaxInt16 - mem.MaxThreads]struct{}

// A Recording stores Pick+1 and Tid+1 in 7-bit fields: these fail the
// build the same way should sched.MaxContexts (which bounds a candidate
// index) or mem.MaxThreads outgrow them.
var (
	_ [fieldMask - sched.MaxContexts]struct{}
	_ [fieldMask - mem.MaxThreads]struct{}
)

// Log is a complete schedule artifact: replaying it reproduces the run.
type Log struct {
	// Config is the full run description (workload + strategy).
	Config RunConfig `json:"config"`
	// Oracle optionally names the oracle this log was saved for failing
	// (regression artifacts assert replay re-fires the same oracle).
	Oracle string `json:"oracle,omitempty"`
	// Decisions are the deviations from the default rule, ascending by N.
	Decisions []Decision `json:"decisions"`
}

// WriteFile serializes the log as indented JSON.
func (l *Log) WriteFile(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadLog reads a schedule artifact written by WriteFile.
func LoadLog(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Log
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("explore: parsing %s: %w", path, err)
	}
	for i := 1; i < len(l.Decisions); i++ {
		if l.Decisions[i].N <= l.Decisions[i-1].N {
			return nil, fmt.Errorf("explore: %s: decisions not strictly ascending at index %d", path, i)
		}
	}
	return &l, nil
}

// recordChunk is how many 4-byte words one chunk of a Recording's log
// holds (16 KiB): a dense run of ~650K deviations fills ~160 chunks.
const recordChunk = 4096

// A Recording packs each deviation into one 32-bit word:
//
//	delta<<16 | (Pick+1)<<9 | (Pre+1)<<7 | (Tid+1)
//
// delta is N minus the previous entry's N (minus the recording's first
// decision number for the first entry). A delta of escape or more stores
// escape in the word and the full 64-bit delta in the two words after it,
// low half first. Pick and Pre are never both -1 in one entry.
const (
	fieldMask  = 1<<7 - 1 // the 7-bit Pick+1 and Tid+1 fields
	preShift   = 7
	preMask    = 3 << preShift
	pickShift  = 9
	deltaShift = 16
	escape     = 1<<16 - 1
)

// Recording wraps a strategy and logs every decision where the strategy
// deviated from the scheduler's default rule. Wrapping the vtime strategy
// yields an empty log; wrapping random/pct yields exactly the deviations
// that distinguish the explored schedule.
//
// Under a random walk most of a run's hundreds of thousands of decisions
// deviate, so the log is kept as packed 4-byte words in fixed-size chunks
// rather than one growing slice of Decisions: appending never copies what
// is already recorded, and Decisions decodes the words once into the flat
// 16-byte list at its final length.
type Recording struct {
	inner sched.Policy
	// chunks hold the packed words in order; an escaped entry's three
	// words never straddle two chunks, so a chunk may end up to two words
	// short of recordChunk.
	chunks [][]uint32
	// start is the first decision number, prev the N of the last entry
	// (start before the first); count is how many entries are recorded.
	start, prev, n uint64
	count          int
	// cur points at the first word of the entry recorded for the current
	// iteration (so a Preempt deviation merges into its Pick entry), nil
	// when the current iteration has no entry yet. Words never move once
	// written.
	cur *uint32
}

// NewRecording wraps inner with deviation recording whose first Pick call
// is decision number n: 0 for a run from scratch, or the decision boundary
// a resumed run's snapshot was taken at, so the recorded log lines up with
// a from-scratch replay whose first n decisions follow the default rule.
func NewRecording(inner sched.Policy, n uint64) *Recording {
	return &Recording{inner: inner, start: n, prev: n, n: n}
}

// Decisions decodes the recorded deviations (ascending by N), nil when
// there are none.
func (r *Recording) Decisions() []Decision {
	if r.count == 0 {
		return nil
	}
	flat := make([]Decision, r.count)
	i, n := 0, r.start
	for _, c := range r.chunks {
		for j := 0; j < len(c); j++ {
			w := c[j]
			delta := uint64(w >> deltaShift)
			if delta == escape {
				delta = uint64(c[j+1]) | uint64(c[j+2])<<32
				j += 2
			}
			n += delta
			flat[i] = Decision{
				N:    n,
				Pick: int32(w>>pickShift&fieldMask) - 1,
				Pre:  int8(w&preMask>>preShift) - 1,
				Tid:  int16(w&fieldMask) - 1,
			}
			i++
		}
	}
	return flat
}

// Steps returns how many scheduling decisions the run made in total.
func (r *Recording) Steps() uint64 { return r.n }

// record appends an entry for decision n with no preemption override and
// makes it the current iteration's entry.
func (r *Recording) record(n uint64, pick, tid int) {
	delta := n - r.prev
	r.prev = n
	words := 1
	if delta >= escape {
		words = 3
	}
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last])+words > recordChunk {
		r.chunks = append(r.chunks, make([]uint32, 0, recordChunk))
		last++
	}
	c := r.chunks[last]
	i := len(c)
	c = c[:i+words]
	low := uint32(pick+1)<<pickShift | uint32(tid+1)
	if words == 1 {
		c[i] = uint32(delta)<<deltaShift | low
	} else {
		c[i] = escape<<deltaShift | low
		c[i+1], c[i+2] = uint32(delta), uint32(delta>>32)
	}
	r.chunks[last] = c
	r.cur = &c[i]
	r.count++
}

// Pick implements sched.Policy.
func (r *Recording) Pick(s *sched.Scheduler, cands []int) int {
	n := r.n
	r.n++
	r.cur = nil
	got := r.inner.Pick(s, cands)
	def := s.DefaultPick(cands)
	if got < 0 || got >= len(cands) {
		got = def
	}
	if got != def {
		r.record(n, got, s.OccupantID(cands[got]))
	}
	return got
}

// Preempt implements sched.Policy.
func (r *Recording) Preempt(s *sched.Scheduler, ctx int) bool {
	got := r.inner.Preempt(s, ctx)
	if got != s.DefaultPreempt(ctx) {
		if r.cur == nil {
			r.record(r.n-1, -1, s.OccupantID(ctx))
		}
		pre := uint32(1) // Pre 0, plus one
		if got {
			pre = 2
		}
		*r.cur = *r.cur&^preMask | pre<<preShift
	}
	return got
}

// Applied is one replayed deviation annotated with what it actually did —
// the raw material of counterexample narratives.
type Applied struct {
	Decision
	// PickedTid is the thread that ran because of a pick override (-1 when
	// the decision had none).
	PickedTid int16
	// DefaultTid is the thread the default rule would have run instead.
	DefaultTid int16
	// Preempted reports whether a forced preemption actually fired.
	Preempted bool
}

// maxApplied is how many fired deviations a replay annotates: the head a
// narrative lists. An unminimized log fires hundreds of thousands, and
// every ddmin oracle replay would otherwise build a list that long.
const maxApplied = 24

// Replay re-drives the scheduler from a decision list: default rule
// everywhere except at the logged decision numbers. Decisions whose N never
// comes up (the run ended early) or whose Pick exceeds the candidate count
// are skipped — that tolerance is what lets ddmin re-test arbitrary subsets
// without alignment bookkeeping.
type Replay struct {
	decisions []Decision
	idx       int
	n         uint64
	cur       *Decision
	// applied holds the first maxApplied fired deviations; fired counts
	// them all.
	applied []Applied
	fired   int
}

// NewReplay builds a replay policy over decisions (ascending by N) whose
// first Pick call is decision number n: 0 for a run from scratch, or the
// decision boundary a resumed run's snapshot was taken at, in which case
// decisions with N < n are skipped as already applied.
func NewReplay(decisions []Decision, n uint64) *Replay {
	return &Replay{decisions: decisions, n: n}
}

// Applied returns the first deviations that fired during the replay, at
// most maxApplied of them.
func (r *Replay) Applied() []Applied { return r.applied }

// Fired returns how many deviations fired during the replay: a pick
// override and a forced preemption at one decision count as two.
func (r *Replay) Fired() int { return r.fired }

// Pick implements sched.Policy.
func (r *Replay) Pick(s *sched.Scheduler, cands []int) int {
	n := r.n
	r.n++
	r.cur = nil
	for r.idx < len(r.decisions) && r.decisions[r.idx].N < n {
		r.idx++
	}
	def := s.DefaultPick(cands)
	if r.idx < len(r.decisions) && r.decisions[r.idx].N == n {
		r.cur = &r.decisions[r.idx]
		if p := int(r.cur.Pick); p >= 0 && p < len(cands) {
			if r.fired < maxApplied {
				r.applied = append(r.applied, Applied{
					Decision:   *r.cur,
					PickedTid:  int16(s.OccupantID(cands[p])),
					DefaultTid: int16(s.OccupantID(cands[def])),
				})
			}
			r.fired++
			return p
		}
	}
	return def
}

// Preempt implements sched.Policy.
func (r *Replay) Preempt(s *sched.Scheduler, ctx int) bool {
	if r.cur != nil && r.cur.Pre >= 0 {
		forced := r.cur.Pre == 1
		if forced {
			if r.fired < maxApplied {
				r.applied = append(r.applied, Applied{
					Decision:  *r.cur,
					PickedTid: int16(s.OccupantID(ctx)),
					Preempted: true,
				})
			}
			r.fired++
		}
		return forced
	}
	return s.DefaultPreempt(ctx)
}
