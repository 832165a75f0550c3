package sanitize

// The dynamic effect-soundness oracle: an EffectObserver that checks every
// executed basic block's register and frame-slot accesses against the
// operation's *declared* effect sets (prog.Reads/Writes/LoadsPtr/Kills).
// The static dataflow pass — and through it the scanner's elision masks —
// trusts those declarations completely, so this checker is what makes a
// wrong annotation a loud fuzzing failure instead of a silent
// scan-a-word-too-few:
//
//   - a read of an undeclared location breaks the liveness facts,
//   - a write to an undeclared location breaks both taint and liveness,
//   - a heap-pointer value written to a location declared Writes (NotPtr)
//     breaks the taint lattice exactly where elision is least forgiving,
//   - a committed execution that skips a Kills write resurrects entry
//     garbage the mask assumed dead.
//
// Pointer evidence is the allocator's range query: a written value whose
// word.Ptr resolves inside a live heap object counts as a pointer. Scalars
// can collide with heap addresses (a dequeued workload value, a large
// key), which is why such locations must be declared LoadsPtr — the
// honest "may hold a pointer-sized value" class — rather than Writes.

import (
	"fmt"

	"stacktrack/internal/alloc"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// Effect-violation kinds.
const (
	EffUndeclaredRead  = "undeclared-read"
	EffUndeclaredWrite = "undeclared-write"
	EffPtrToNonPtr     = "pointer-to-nonptr"
	EffMissedKill      = "missed-kill"
)

// EffectFinding is one deduplicated effect-declaration violation.
type EffectFinding struct {
	Op    string
	Block int
	Kind  string
	Loc   string // R3 / F7
}

func (f EffectFinding) String() string {
	return fmt.Sprintf("EFFECT [%s] %s block %d loc %s", f.Kind, f.Op, f.Block, f.Loc)
}

// effBlock is the precomputed declared-effect table of one block: bitmask
// per register, bool vector per frame slot.
type effBlock struct {
	effects  bool
	readsR   uint32
	writesR  uint32 // Writes ∪ LoadsPtr ∪ Kills
	ptrR     uint32 // LoadsPtr
	readsF   []bool
	writesF  []bool
	ptrF     []bool
	kills    []prog.Loc
	hasKills bool
}

func regBit(r int) uint32 { return 1 << uint(r) }

// effThread is the per-thread armed-block state.
type effThread struct {
	armed  bool
	op     string
	block  int
	tab    *effBlock
	wroteR uint32
	wroteF []bool
}

// EffectChecker implements sched.EffectObserver. Construct with
// NewEffectChecker, register the operation set with AddOps, and install on
// each thread's EffectObs.
type EffectChecker struct {
	al  *alloc.Allocator
	ops map[string][]effBlock

	th   []effThread
	seen map[EffectFinding]struct{}

	// Violations counts every occurrence; Findings dedups by
	// (op, block, kind, loc) and keeps first-occurrence order.
	Violations uint64
	Findings   []EffectFinding
}

// NewEffectChecker creates a checker for n threads using al for pointer
// evidence.
func NewEffectChecker(n int, al *alloc.Allocator) *EffectChecker {
	c := &EffectChecker{
		al:   al,
		ops:  make(map[string][]effBlock),
		th:   make([]effThread, n),
		seen: make(map[EffectFinding]struct{}),
	}
	for i := range c.th {
		c.th[i].wroteF = []bool{}
	}
	return c
}

// AddOps registers operations to check. Blocks without effect annotations
// (and operations without CFGs) are skipped — unannotated code is the
// verifier's partial-annotation diagnostic's problem, not the oracle's.
func (c *EffectChecker) AddOps(ops ...*prog.Op) {
	for _, op := range ops {
		cfg := op.CFG()
		if len(cfg) == 0 {
			continue
		}
		tabs := make([]effBlock, len(cfg))
		for i, bi := range cfg {
			tb := &tabs[i]
			tb.effects = bi.Effects
			tb.readsF = make([]bool, op.FrameWords)
			tb.writesF = make([]bool, op.FrameWords)
			tb.ptrF = make([]bool, op.FrameWords)
			mark := func(locs []prog.Loc, rm *uint32, fm []bool) {
				for _, l := range locs {
					if l.IsFrame {
						if l.Index >= 0 && l.Index < len(fm) {
							fm[l.Index] = true
						}
					} else if l.Index >= 0 && l.Index < sched.NumRegs {
						*rm |= regBit(l.Index)
					}
				}
			}
			mark(bi.Reads, &tb.readsR, tb.readsF)
			mark(bi.Writes, &tb.writesR, tb.writesF)
			mark(bi.LoadsPtr, &tb.writesR, tb.writesF)
			mark(bi.LoadsPtr, &tb.ptrR, tb.ptrF)
			mark(bi.Kills, &tb.writesR, tb.writesF)
			tb.kills = bi.Kills
			tb.hasKills = len(bi.Kills) > 0
		}
		c.ops[op.Name] = tabs
	}
}

func (c *EffectChecker) report(t *sched.Thread, kind string, loc string) {
	s := &c.th[t.ID]
	c.Violations++
	f := EffectFinding{Op: s.op, Block: s.block, Kind: kind, Loc: loc}
	if _, dup := c.seen[f]; dup {
		return
	}
	c.seen[f] = struct{}{}
	c.Findings = append(c.Findings, f)
}

// isPtr reports pointer evidence: the (mark-stripped) value resolves into
// a live heap object.
func (c *EffectChecker) isPtr(v uint64) bool {
	_, ok := c.al.ObjectStart(word.Ptr(v))
	return ok
}

// BlockStart implements sched.EffectObserver.
func (c *EffectChecker) BlockStart(t *sched.Thread, op string, block int) {
	s := &c.th[t.ID]
	tabs, ok := c.ops[op]
	if !ok || block < 0 || block >= len(tabs) || !tabs[block].effects {
		s.armed = false
		return
	}
	s.armed = true
	s.op = op
	s.block = block
	s.tab = &tabs[block]
	s.wroteR = 0
	if cap(s.wroteF) < len(s.tab.writesF) {
		s.wroteF = make([]bool, len(s.tab.writesF))
	} else {
		s.wroteF = s.wroteF[:len(s.tab.writesF)]
		for i := range s.wroteF {
			s.wroteF[i] = false
		}
	}
}

// BlockEnd implements sched.EffectObserver. Kills are must-writes only on
// committed (complete) executions: an aborted block may have stopped
// before the killing store, and its effects rolled back with the segment.
func (c *EffectChecker) BlockEnd(t *sched.Thread, op string, block int, committed bool) {
	s := &c.th[t.ID]
	if s.armed && committed && s.tab.hasKills {
		for _, l := range s.tab.kills {
			wrote := false
			if l.IsFrame {
				wrote = l.Index >= 0 && l.Index < len(s.wroteF) && s.wroteF[l.Index]
			} else {
				wrote = s.wroteR&regBit(l.Index) != 0
			}
			if !wrote {
				c.report(t, EffMissedKill, l.String())
			}
		}
	}
	s.armed = false
}

// RegRead implements sched.EffectObserver.
func (c *EffectChecker) RegRead(t *sched.Thread, r int) {
	s := &c.th[t.ID]
	if !s.armed || r < 0 || r >= sched.NumRegs {
		return
	}
	if s.tab.readsR&regBit(r) == 0 {
		c.report(t, EffUndeclaredRead, prog.R(r).String())
	}
}

// RegWrite implements sched.EffectObserver.
func (c *EffectChecker) RegWrite(t *sched.Thread, r int, v uint64) {
	s := &c.th[t.ID]
	if !s.armed || r < 0 || r >= sched.NumRegs {
		return
	}
	if s.tab.writesR&regBit(r) == 0 {
		c.report(t, EffUndeclaredWrite, prog.R(r).String())
	} else if s.tab.ptrR&regBit(r) == 0 && c.isPtr(v) {
		c.report(t, EffPtrToNonPtr, prog.R(r).String())
	}
	s.wroteR |= regBit(r)
}

// SlotRead implements sched.EffectObserver.
func (c *EffectChecker) SlotRead(t *sched.Thread, slot int) {
	s := &c.th[t.ID]
	if !s.armed || slot < 0 || slot >= len(s.tab.readsF) {
		return
	}
	if !s.tab.readsF[slot] {
		c.report(t, EffUndeclaredRead, prog.F(slot).String())
	}
}

// SlotWrite implements sched.EffectObserver.
func (c *EffectChecker) SlotWrite(t *sched.Thread, slot int, v uint64) {
	s := &c.th[t.ID]
	if !s.armed || slot < 0 || slot >= len(s.tab.writesF) {
		return
	}
	if !s.tab.writesF[slot] {
		c.report(t, EffUndeclaredWrite, prog.F(slot).String())
	} else if !s.tab.ptrF[slot] && c.isPtr(v) {
		c.report(t, EffPtrToNonPtr, prog.F(slot).String())
	}
	s.wroteF[slot] = true
}
