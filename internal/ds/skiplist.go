package ds

// A lock-free skip list in the Fraser / Herlihy–Shavit style, the paper's
// 100K-node benchmark structure. Each node carries a tower of next
// pointers; deletion marks every level's next pointer (top down, bottom
// last — the bottom-level mark is the linearization point) and traversals
// snip marked nodes out level by level.
//
// Retirement policy: the deleter — the thread whose bottom-level mark CAS
// succeeded — retires the node after its post-mark find(key) returns. Only
// then is the node provably unlinked from *every* level: all levels were
// marked before that find began (and a marked level can never gain a link,
// because insert's mark-check and link CAS are atomic at block granularity),
// and the find snips the node wherever it remains, encountering it at every
// level where it is linked since they share the search key. Retiring
// earlier — e.g. at the level-0 snip — is unsound: an insert may have
// linked the node at a higher level just before it was marked there,
// leaving a retired node reachable to operations that start after the
// retire.
//
// The find(key) helper is emitted once per operation as a block-level
// subroutine: the caller stores its return label in a frame slot, exactly
// like a compiled call pushing a return address.

import (
	"math/bits"

	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// MaxLevel is the skip list's tower height bound.
const MaxLevel = 20

// Skip node layout: 3 fixed words plus the tower.
const (
	skOffKey = 0
	skOffVal = 1
	skOffTop = 2
	skOffNxt = 3 // next[level] = node + skOffNxt + level
)

// Guard-slot map for pointer-based reclamation schemes (hazard pointers,
// reference counts). Slots 0/1 alternate over the walk's {pred, curr};
// slot 2 pins a delete's victim across its post-mark find; slot 3 pins an
// insert's node across linking; slots 4+2l / 5+2l hold the recorded
// pred/succ of level l, handed off at descend. This per-structure budget is
// exactly the manual customization burden the paper says non-automatic
// schemes impose.
const (
	slotPinVictim = 2
	slotPinNew    = 3
	slotLevelBase = 4
)

func slotPred(level int) int { return slotLevelBase + 2*level }
func slotSucc(level int) int { return slotLevelBase + 2*level + 1 }

// Frame slots for the skip-list operations.
const (
	skRet        = 0 // find's return label (block index)
	skFound      = 1 // find's result
	skLevel      = 2 // current traversal level
	skPred       = 3 // current predecessor node
	skCurr       = 4 // current node
	skSucc       = 5 // raw successor word (may be marked)
	skParity     = 6 // alternating hazard slot
	skNode       = 7 // insert: new node / delete: victim
	skTop        = 8 // node's top level
	skTmp        = 9 // insert: current linking level (find clobbers skLevel)
	skPreds      = 10
	skSuccs      = skPreds + MaxLevel
	skFrameWords = skSuccs + MaxLevel
)

// skTower returns the Locs of all MaxLevel slots starting at base. The
// level-indexed accesses in find and the linking loop are dynamic, so the
// declared may-sets cover the whole array.
func skTower(base int) []prog.Loc {
	locs := make([]prog.Loc, MaxLevel)
	for l := 0; l < MaxLevel; l++ {
		locs[l] = prog.F(base + l)
	}
	return locs
}

// DebugCheckRetire, when set by a test, is invoked immediately before a
// skip-list node is retired (dev aid for reachability auditing). Both
// hooks are process-wide and a bench sweep simulates several points at
// once, so a test that sets one runs its simulations one at a time.
var DebugCheckRetire func(t *sched.Thread, s *SkipList, node word.Addr)

// DebugEvent, when set by a test, receives skip-list internal transitions
// (dev aid). All arguments are values the block already computed, so the
// hook is cost-neutral.
var DebugEvent func(t *sched.Thread, what string, node word.Addr, level int, a, b uint64)

// SkipList is the lock-free skip list. The head sentinel is a static tower
// with key 0, so user keys must be >= 1.
type SkipList struct {
	head word.Addr

	OpContains *prog.Op
	OpInsert   *prog.Op
	OpDelete   *prog.Op
}

// NewSkipList allocates the head tower and compiles the operations.
func NewSkipList(a *alloc.Allocator) *SkipList {
	s := &SkipList{head: a.Static(skOffNxt + MaxLevel)}
	a.Memory().Poke(s.head+skOffTop, MaxLevel-1)
	s.OpContains = s.buildContains()
	s.OpInsert = s.buildInsert()
	s.OpDelete = s.buildDelete()
	return s
}

// Head returns the head sentinel's address.
func (s *SkipList) Head() word.Addr { return s.head }

func nextAddr(node word.Addr, level int) word.Addr {
	return node + skOffNxt + word.Addr(level)
}

// randomLevel draws a geometric(1/2) tower height in [0, MaxLevel-1].
func randomLevel(t *sched.Thread) int {
	l := bits.TrailingZeros64(t.Rng.Uint64() | (1 << (MaxLevel - 1)))
	return l
}

// emitFind appends the find(key) subroutine at label lbFind. On entry the
// caller has set f[skRet]; on exit preds/succs are filled, f[skFound] says
// whether an unmarked node with the key sits at succs[0], and control jumps
// to f[skRet]. Marked nodes encountered on the way are snipped; level-0
// snips retire the node. rets lists every label the caller may store in
// f[skRet] — the computed return jump's declared targets for the verifier.
func (s *SkipList) emitFind(b *prog.Builder, lbFind *int, rets ...*int) {
	lbLevel := b.Label()
	lbWalk := b.Label()
	lbCheck := b.Label()
	lbDescend := b.Label()
	lbDone := b.Label()

	// find entry: restart from the head at the top level. The walk keeps
	// the guard discipline of the list: the slot named by skParity always
	// guards curr, the other slot guards the node skPred names (the head
	// sentinel is static and needs none).
	b.Bind(lbFind)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(skPred, uint64(s.head))
		f.Set(skLevel, MaxLevel-1)
		f.Set(skParity, 0)
		return *lbLevel
	}, prog.Goto(lbLevel),
		// skPred is declared pointer-bearing everywhere: the head sentinel
		// is static but the walk replaces it with heap nodes.
		prog.LoadsPtr(prog.F(skPred)),
		prog.Writes(prog.F(skLevel), prog.F(skParity)),
		prog.Kills(prog.F(skPred), prog.F(skLevel), prog.F(skParity)))

	// Begin a level: load pred.next[level] into curr's slot. A marked
	// value means the predecessor was deleted under us; a reference taken
	// through its frozen link would be tied to no live link word (so the
	// unlink conflict every scheme relies on could not cover it) —
	// restart.
	b.Bind(lbLevel)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		pred := f.GetPtr(skPred)
		level := int(f.Get(skLevel))
		w := t.ProtectLoad(int(f.Get(skParity)), nextAddr(pred, level))
		if word.IsMarked(w) {
			return *lbFind
		}
		f.Set(skCurr, uint64(word.Ptr(w)))
		return *lbWalk
	}, prog.Goto(lbFind, lbWalk),
		prog.Reads(prog.F(skPred), prog.F(skLevel), prog.F(skParity)),
		prog.LoadsPtr(prog.F(skCurr)))

	// Walk: read curr's successor plainly (curr is guarded).
	b.Bind(lbWalk)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(skCurr)
		if curr == word.Null {
			f.Set(skSucc, 0)
			return *lbDescend
		}
		f.Set(skSucc, t.Load(nextAddr(curr, int(f.Get(skLevel)))))
		return *lbCheck
	}, prog.Goto(lbDescend, lbCheck),
		prog.Reads(prog.F(skCurr), prog.F(skLevel)),
		prog.LoadsPtr(prog.F(skSucc)),
		prog.Kills(prog.F(skSucc)))

	// Check: snip a marked curr, advance past a small key, or descend.
	b.Bind(lbCheck)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(skCurr)
		succ := f.Get(skSucc)
		level := int(f.Get(skLevel))
		if word.IsMarked(succ) {
			pred := f.GetPtr(skPred)
			slot := int(f.Get(skParity))
			if !t.CAS(nextAddr(pred, level), uint64(curr), uint64(word.Ptr(succ))) {
				return *lbFind
			}
			// Snip only; retirement belongs to the deleter (see the
			// package comment). Re-acquire curr from the live link,
			// guarded, into the snipped node's slot.
			if DebugEvent != nil {
				DebugEvent(t, "snip", curr, level, uint64(pred), succ)
			}
			w := t.ProtectLoad(slot, nextAddr(pred, level))
			if word.IsMarked(w) {
				return *lbFind
			}
			f.Set(skCurr, uint64(word.Ptr(w)))
			return *lbWalk
		}
		if t.Load(curr+skOffKey) < t.Reg(prog.RegArg1) {
			// Advance: curr becomes pred and keeps its guard; the
			// successor is re-loaded, validated, into the outgoing
			// predecessor's slot. A marked re-load means curr was
			// deleted in the window — divert to the snip path rather
			// than advancing through a frozen link.
			slot := int(f.Get(skParity))
			w := t.ProtectLoad(slot^1, nextAddr(curr, level))
			if word.IsMarked(w) {
				f.Set(skSucc, w)
				return *lbCheck
			}
			f.Set(skPred, uint64(curr))
			f.Set(skCurr, uint64(word.Ptr(w)))
			f.Set(skParity, uint64(slot^1))
			return *lbWalk
		}
		return *lbDescend
	}, prog.Goto(lbFind, lbWalk, lbCheck, lbDescend),
		prog.Reads(prog.F(skCurr), prog.F(skSucc), prog.F(skLevel),
			prog.F(skPred), prog.F(skParity), prog.R(prog.RegArg1)),
		prog.LoadsPtr(prog.F(skCurr), prog.F(skSucc), prog.F(skPred)),
		prog.Writes(prog.F(skParity)))

	// Descend: record pred/succ for this level with guard handoffs (both
	// are currently guarded by the walk slots), then go down or finish.
	b.Bind(lbDescend)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		level := int(f.Get(skLevel))
		pred := f.GetPtr(skPred)
		curr := f.GetPtr(skCurr)
		f.Set(skPreds+level, uint64(pred))
		f.Set(skSuccs+level, uint64(curr))
		t.Protect(slotPred(level), pred)
		t.Protect(slotSucc(level), curr)
		if level > 0 {
			f.Set(skLevel, uint64(level-1))
			return *lbLevel
		}
		return *lbDone
	}, prog.Goto(lbLevel, lbDone),
		prog.Reads(prog.F(skLevel), prog.F(skPred), prog.F(skCurr)),
		prog.LoadsPtr(skTower(skPreds)...),
		prog.LoadsPtr(skTower(skSuccs)...),
		prog.Writes(prog.F(skLevel)))

	b.Bind(lbDone)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(skCurr)
		found := curr != word.Null && t.Load(curr+skOffKey) == t.Reg(prog.RegArg1)
		f.Set(skFound, boolWord(found))
		return int(f.Get(skRet))
	}, prog.Goto(rets...),
		prog.Reads(prog.F(skCurr), prog.R(prog.RegArg1), prog.F(skRet)),
		prog.Writes(prog.F(skFound)),
		prog.Kills(prog.F(skFound)))
}

// buildContains runs the same helping find as the mutators and reports
// whether an unmarked node with the key was present. A wait-free traversal
// that skips through marked nodes (the classic read-only optimization) is
// only sound under garbage collection: it takes references from frozen
// links that no unlink conflict protects, so with explicit reclamation it
// can chase freed memory.
func (s *SkipList) buildContains() *prog.Op {
	b := prog.NewBuilder()
	lbAfter := b.Label()
	lbFind := b.Label()

	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(skRet, uint64(*lbAfter))
		return *lbFind
	}, prog.Goto(lbFind),
		prog.Writes(prog.F(skRet)), prog.Kills(prog.F(skRet)))
	s.emitFind(b, lbFind, lbAfter)

	b.Bind(lbAfter)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		t.SetReg(prog.RegResult, f.Get(skFound))
		return prog.Done
	}, prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(skFound)),
		prog.Writes(prog.R(prog.RegResult)),
		prog.Kills(prog.R(prog.RegResult)))
	return b.Build(OpContains, "skiplist.Contains", skFrameWords)
}

func (s *SkipList) buildInsert() *prog.Op {
	b := prog.NewBuilder()
	lbStart := b.Label()
	lbAfterFind := b.Label()
	lbPrepare := b.Label()
	lbBottom := b.Label()
	lbLink := b.Label()
	lbLinkTry := b.Label()
	lbRefind := b.Label()
	lbAfterRefind := b.Label()
	lbOK := b.Label()
	lbFind := b.Label()

	// The operation's entry block must be Blocks[0], so emit it before
	// the find subroutine.
	b.Bind(lbStart)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(skNode, 0)
		f.Set(skRet, uint64(*lbAfterFind))
		return *lbFind
	}, prog.Goto(lbFind),
		prog.Writes(prog.F(skNode), prog.F(skRet)),
		prog.Kills(prog.F(skNode), prog.F(skRet)))
	s.emitFind(b, lbFind, lbAfterFind, lbAfterRefind)

	b.Bind(lbAfterFind)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		if f.Get(skFound) != 0 {
			if n := f.GetPtr(skNode); n != word.Null {
				retireNode(t, n) // allocated on a previous attempt
			}
			t.SetReg(prog.RegResult, 0)
			return prog.Done
		}
		return *lbPrepare
	}, prog.Goto(lbPrepare), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(skFound), prog.F(skNode)),
		prog.Writes(prog.R(prog.RegResult)))

	// Allocate the node (once) and point its tower at the successors.
	b.Bind(lbPrepare)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		n := f.GetPtr(skNode)
		if n == word.Null {
			top := randomLevel(t)
			n = t.Alloc(skOffNxt + top + 1)
			t.Store(n+skOffKey, t.Reg(prog.RegArg1))
			t.Store(n+skOffVal, t.Reg(prog.RegArg2))
			t.Store(n+skOffTop, uint64(top))
			f.Set(skNode, uint64(n))
			f.Set(skTop, uint64(top))
			// Pin it: once published it can be deleted concurrently,
			// and the linking loop keeps dereferencing it.
			t.Protect(slotPinNew, n)
		}
		top := int(f.Get(skTop))
		for l := 0; l <= top; l++ {
			t.Store(nextAddr(n, l), f.Get(skSuccs+l))
		}
		return *lbBottom
	}, prog.Goto(lbBottom),
		prog.Reads(append(skTower(skSuccs),
			prog.F(skNode), prog.F(skTop),
			prog.R(prog.RegArg1), prog.R(prog.RegArg2))...),
		prog.LoadsPtr(prog.F(skNode)),
		prog.Writes(prog.F(skTop)))

	// Linearization point: link level 0. The successor must be verifiably
	// unmarked in the same block as the CAS: linking in front of a marked
	// node would hide it behind an equal key, and the deleter's find —
	// which stops at the first key >= its target — could then never snip
	// it, retiring a still-linked node.
	b.Bind(lbBottom)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		pred := f.GetPtr(skPreds + 0)
		succ := f.Get(skSuccs + 0)
		n := f.GetPtr(skNode)
		if s := word.Ptr(succ); s != word.Null && word.IsMarked(t.Load(nextAddr(s, 0))) {
			f.Set(skRet, uint64(*lbAfterFind))
			return *lbFind // stale successor: it is being deleted
		}
		if t.CAS(nextAddr(pred, 0), succ, uint64(n)) {
			if DebugEvent != nil {
				DebugEvent(t, "link", n, 0, uint64(pred), succ)
			}
			f.Set(skTmp, 1)
			return *lbLink
		}
		f.Set(skRet, uint64(*lbAfterFind))
		return *lbFind
	}, prog.Goto(lbFind, lbLink),
		prog.Reads(prog.F(skPreds+0), prog.F(skSuccs+0), prog.F(skNode)),
		prog.Writes(prog.F(skRet), prog.F(skTmp)))

	// Link the higher levels, re-finding on contention. The linking level
	// lives in its own slot (skTmp): the find subroutine clobbers skLevel.
	b.Bind(lbLink)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		if int(f.Get(skTmp)) > int(f.Get(skTop)) {
			return *lbOK
		}
		return *lbLinkTry
	}, prog.Goto(lbOK, lbLinkTry),
		prog.Reads(prog.F(skTmp), prog.F(skTop)))

	b.Bind(lbLinkTry)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		level := int(f.Get(skTmp))
		n := f.GetPtr(skNode)
		old := t.Load(nextAddr(n, level))
		if word.IsMarked(old) {
			// A concurrent delete owns the node now; stop linking.
			return *lbOK
		}
		succ := f.Get(skSuccs + level)
		if s := word.Ptr(succ); s != word.Null && word.IsMarked(t.Load(nextAddr(s, level))) {
			return *lbRefind // stale successor (being deleted): refresh
		}
		if old != succ && !t.CAS(nextAddr(n, level), old, succ) {
			return *lbLinkTry
		}
		pred := f.GetPtr(skPreds + level)
		if t.CAS(nextAddr(pred, level), succ, uint64(n)) {
			if DebugEvent != nil {
				DebugEvent(t, "link", n, level, uint64(pred), succ)
			}
			f.Set(skTmp, uint64(level+1))
			return *lbLink
		}
		return *lbRefind
	}, prog.Goto(lbOK, lbRefind, lbLinkTry, lbLink),
		prog.Reads(append(append(skTower(skSuccs), skTower(skPreds)...),
			prog.F(skTmp), prog.F(skNode))...),
		prog.Writes(prog.F(skTmp)))

	b.Bind(lbRefind)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(skRet, uint64(*lbAfterRefind))
		return *lbFind
	}, prog.Goto(lbFind),
		prog.Writes(prog.F(skRet)), prog.Kills(prog.F(skRet)))

	b.Bind(lbAfterRefind)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		// The node is in the list (level 0 linked). If find no longer
		// sees it, a concurrent delete removed it — stop linking.
		if f.Get(skFound) == 0 || f.GetPtr(skSuccs+0) != f.GetPtr(skNode) {
			return *lbOK
		}
		return *lbLinkTry
	}, prog.Goto(lbOK, lbLinkTry),
		prog.Reads(prog.F(skFound), prog.F(skSuccs+0), prog.F(skNode)))

	b.Bind(lbOK)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		t.SetReg(prog.RegResult, 1)
		return prog.Done
	}, prog.SetsResult(), prog.Returns(),
		prog.Writes(prog.R(prog.RegResult)),
		prog.Kills(prog.R(prog.RegResult)))
	return b.Build(OpInsert, "skiplist.Insert", skFrameWords)
}

func (s *SkipList) buildDelete() *prog.Op {
	b := prog.NewBuilder()
	lbStart := b.Label()
	lbAfterFind := b.Label()
	lbMarkTop := b.Label()
	lbMarkBottom := b.Label()
	lbAfterUnlink := b.Label()
	lbFind := b.Label()

	b.Bind(lbStart)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(skRet, uint64(*lbAfterFind))
		return *lbFind
	}, prog.Goto(lbFind),
		prog.Writes(prog.F(skRet)), prog.Kills(prog.F(skRet)))
	s.emitFind(b, lbFind, lbAfterFind, lbAfterUnlink)

	b.Bind(lbAfterFind)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		if f.Get(skFound) == 0 {
			t.SetReg(prog.RegResult, 0)
			return prog.Done
		}
		n := f.GetPtr(skSuccs + 0)
		f.Set(skNode, uint64(n))
		// Pin the victim: the post-mark find reuses the walk and level
		// slots, and the retire must not race our own dereferences.
		t.Protect(slotPinVictim, n)
		f.Set(skTop, t.Load(n+skOffTop))
		f.Set(skLevel, f.Get(skTop))
		return *lbMarkTop
	}, prog.Goto(lbMarkTop), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(skFound), prog.F(skSuccs+0), prog.F(skTop)),
		prog.LoadsPtr(prog.F(skNode)),
		// skTop receives the victim's stored top level (a small int) and
		// skLevel a copy of it.
		prog.Writes(prog.R(prog.RegResult), prog.F(skTop), prog.F(skLevel)))

	// Mark levels top..1.
	b.Bind(lbMarkTop)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		level := int(f.Get(skLevel))
		if level == 0 {
			return *lbMarkBottom
		}
		n := f.GetPtr(skNode)
		w := t.Load(nextAddr(n, level))
		if word.IsMarked(w) {
			f.Set(skLevel, uint64(level-1))
			return *lbMarkTop
		}
		if t.CAS(nextAddr(n, level), w, word.Mark(word.Ptr(w))) && DebugEvent != nil {
			DebugEvent(t, "mark", n, level, w, 0)
		}
		return *lbMarkTop // re-check (either we marked it or retry)
	}, prog.Goto(lbMarkBottom, lbMarkTop),
		prog.Reads(prog.F(skLevel), prog.F(skNode)),
		prog.Writes(prog.F(skLevel)))

	// Bottom-level mark: the linearization point.
	b.Bind(lbMarkBottom)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		n := f.GetPtr(skNode)
		w := t.Load(nextAddr(n, 0))
		if word.IsMarked(w) {
			// A concurrent delete linearized first.
			t.SetReg(prog.RegResult, 0)
			return prog.Done
		}
		if t.CAS(nextAddr(n, 0), w, word.Mark(word.Ptr(w))) {
			if DebugEvent != nil {
				DebugEvent(t, "mark", n, 0, w, 0)
			}
			// Unlink physically (find snips and retires).
			f.Set(skRet, uint64(*lbAfterUnlink))
			return *lbFind
		}
		return *lbMarkBottom
	}, prog.Goto(lbFind, lbMarkBottom), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(skNode)),
		prog.Writes(prog.R(prog.RegResult), prog.F(skRet)))

	b.Bind(lbAfterUnlink)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		// The post-mark find returned: the victim is off every level.
		// We own the bottom-level mark, so we own the retire.
		node := f.GetPtr(skNode)
		if DebugCheckRetire != nil {
			DebugCheckRetire(t, s, node)
		}
		retireNode(t, node)
		t.SetReg(prog.RegResult, 1)
		return prog.Done
	}, prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(skNode)),
		prog.Writes(prog.R(prog.RegResult)),
		prog.Kills(prog.R(prog.RegResult)))
	return b.Build(OpDelete, "skiplist.Delete", skFrameWords)
}

// --- Setup and validation helpers -------------------------------------------

// Seed inserts strictly increasing keys at setup time, bypassing the
// simulation, with deterministic tower heights drawn from seed.
func (s *SkipList) Seed(a *alloc.Allocator, m *mem.Memory, keys []uint64, val uint64, seed uint64) {
	// preds[l] tracks the last node at each level as we append in order.
	preds := make([]word.Addr, MaxLevel)
	for l := range preds {
		preds[l] = s.head
	}
	st := seed
	for i, k := range keys {
		if k == 0 {
			panic("ds: skip-list keys must be >= 1 (0 is the head sentinel)")
		}
		if i > 0 && keys[i-1] >= k {
			panic("ds: seed keys must be strictly increasing")
		}
		st = st*6364136223846793005 + 1442695040888963407
		top := bits.TrailingZeros64((st >> 17) | (1 << (MaxLevel - 1)))
		n := a.Alloc(0, skOffNxt+top+1)
		m.Poke(n+skOffKey, k)
		m.Poke(n+skOffVal, val)
		m.Poke(n+skOffTop, uint64(top))
		for l := 0; l <= top; l++ {
			m.Poke(nextAddr(preds[l], l), uint64(n))
			preds[l] = n
		}
	}
}

// LevelLen counts the unmarked keys at the given level, outside the
// simulation.
func (s *SkipList) LevelLen(m *mem.Memory, level, limit int) int {
	n := 0
	walkUnmarked(m, nextAddr(s.head, level), skOffNxt+word.Addr(level), skOffKey, limit,
		func(uint64) { n++ })
	return n
}
