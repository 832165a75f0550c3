package ds

// Harris's lock-free linked list [Harris, DISC'01], the paper's 5K-node
// benchmark structure and the building block of the hash table. Deleted
// nodes are first logically marked (low bit of the next pointer), then
// physically unlinked by the deleter or by any traversal that encounters
// them; the thread whose CAS performs the physical unlink retires the node.

import (
	"fmt"

	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// List node layout (4-word class).
const (
	listOffKey  = 0
	listOffNext = 1
	listOffVal  = 2
	listNodeLen = 3
)

// Frame slots shared by the list operations.
const (
	lsPrev         = 0 // address of the link word curr was loaded from
	lsCurr         = 1 // current node (unmarked address)
	lsNext         = 2 // raw next word of curr (may carry the mark bit)
	lsParity       = 3 // alternating hazard slot index
	lsNew          = 4 // insert: the allocated node
	listFrameWords = 5
)

// headOfFn computes the address of the list-head pointer word for the
// current operation. The stand-alone list returns a fixed address; the hash
// table hashes the key register.
type headOfFn func(t *sched.Thread, f sched.Frame) word.Addr

// List is a stand-alone Harris list rooted at a static head word.
type List struct {
	head word.Addr

	OpContains *prog.Op
	OpInsert   *prog.Op
	OpDelete   *prog.Op
}

// NewList allocates the list's head word (static region) and compiles its
// operations.
func NewList(a *alloc.Allocator) *List {
	l := &List{head: a.Static(1)}
	headOf := func(*sched.Thread, sched.Frame) word.Addr { return l.head }
	l.OpContains = buildListContains(OpContains, "list.Contains", headOf)
	l.OpInsert = buildListInsert(OpInsert, "list.Insert", headOf)
	l.OpDelete = buildListDelete(OpDelete, "list.Delete", headOf)
	return l
}

// Head returns the address of the head pointer word.
func (l *List) Head() word.Addr { return l.head }

// emitListSearch appends the shared search skeleton: from lbRetry it walks
// the list helping unlink marked nodes, and branches to lbPos with
// lsPrev/lsCurr positioned at the first node whose key is >= R1 (lsCurr may
// be null at the end of the list).
//
// Guard discipline (Michael's): the slot named by lsParity always protects
// curr, and the other slot protects the node lsPrev points into. The
// successor is loaded plainly first (safe: curr is guarded) and acquires
// its own guard only at the advance, by a validated ProtectLoad into the
// outgoing predecessor's slot. Protecting the successor *instead of* the
// predecessor — the tempting shortcut — lets an immediate-reclamation
// scheme free the predecessor while lsPrev still points into it, and a
// later CAS through lsPrev then writes into recycled memory (a lost
// insert); the schedule-fuzz matrix caught exactly that.
func emitListSearch(b *prog.Builder, headOf headOfFn, lbRetry, lbPos *int) {
	lbLoop := b.Label()
	lbCheckMark := b.Label()
	lbKey := b.Label()

	b.Bind(lbRetry)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		head := headOf(t, f)
		f.Set(lsPrev, uint64(head))
		w := t.ProtectLoad(0, head)
		f.Set(lsCurr, uint64(word.Ptr(w)))
		f.Set(lsParity, 0)
		return *lbLoop
	}, prog.Goto(lbLoop),
		// headOf may hash the key register (hash table); the head/bucket
		// word itself is static, but lsPrev later holds heap link-word
		// addresses, so the slot is declared pointer-bearing everywhere.
		prog.Reads(prog.R(prog.RegArg1)),
		prog.LoadsPtr(prog.F(lsPrev), prog.F(lsCurr)),
		prog.Writes(prog.F(lsParity)),
		prog.Kills(prog.F(lsPrev), prog.F(lsCurr), prog.F(lsParity)))

	b.Bind(lbLoop)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(lsCurr)
		if curr == word.Null {
			return *lbPos
		}
		f.Set(lsNext, t.Load(curr+listOffNext))
		return *lbCheckMark
	}, prog.Goto(lbPos, lbCheckMark),
		prog.Reads(prog.F(lsCurr)),
		prog.LoadsPtr(prog.F(lsNext)))

	b.Bind(lbCheckMark)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		next := f.Get(lsNext)
		if !word.IsMarked(next) {
			return *lbKey
		}
		// curr is logically deleted: help unlink it. The successful
		// unlinker owns the retire. The spliced-in successor is safe to
		// publish unguarded: it cannot be unlinked from behind curr's
		// frozen (marked) next pointer.
		curr := f.GetPtr(lsCurr)
		prev := word.Addr(f.Get(lsPrev))
		slot := int(f.Get(lsParity))
		if t.CAS(prev, uint64(curr), uint64(word.Ptr(next))) {
			retireNode(t, curr)
			// Re-acquire curr from the link word, guarded, into the
			// retired node's slot (the predecessor keeps its guard).
			w := t.ProtectLoad(slot, prev)
			if word.IsMarked(w) {
				// The predecessor was deleted under us; its link is
				// frozen and no longer part of the live chain.
				return *lbRetry
			}
			f.Set(lsCurr, uint64(word.Ptr(w)))
			return *lbLoop
		}
		return *lbRetry
	}, prog.Goto(lbKey, lbRetry, lbLoop),
		prog.Reads(prog.F(lsNext), prog.F(lsCurr), prog.F(lsPrev), prog.F(lsParity)),
		prog.LoadsPtr(prog.F(lsCurr)))

	b.Bind(lbKey)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(lsCurr)
		k := t.Load(curr + listOffKey)
		if k < t.Reg(prog.RegArg1) {
			// Advance: curr becomes the predecessor and keeps its
			// guard; the successor is re-loaded with validation into
			// the outgoing predecessor's slot.
			slot := int(f.Get(lsParity))
			w := t.ProtectLoad(slot^1, curr+listOffNext)
			if word.IsMarked(w) {
				// curr was deleted between the plain load and the
				// guarded re-load. A reference taken through a
				// frozen marked link belongs to no live link word,
				// so the unlink-conflict protection every scheme
				// relies on would not cover it — divert to the help
				// path instead of advancing through it.
				f.Set(lsNext, w)
				return *lbCheckMark
			}
			f.Set(lsPrev, uint64(curr+listOffNext))
			f.Set(lsCurr, uint64(word.Ptr(w)))
			f.Set(lsParity, uint64(slot^1))
			return *lbLoop
		}
		return *lbPos
	}, prog.Goto(lbLoop, lbCheckMark, lbPos),
		prog.Reads(prog.F(lsCurr), prog.R(prog.RegArg1), prog.F(lsParity)),
		prog.LoadsPtr(prog.F(lsNext), prog.F(lsPrev), prog.F(lsCurr)),
		prog.Writes(prog.F(lsParity)))
}

func buildListContains(id int, name string, headOf headOfFn) *prog.Op {
	b := prog.NewBuilder()
	lbRetry := b.Label()
	lbPos := b.Label()
	emitListSearch(b, headOf, lbRetry, lbPos)

	b.Bind(lbPos)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(lsCurr)
		found := false
		if curr != word.Null {
			found = t.Load(curr+listOffKey) == t.Reg(prog.RegArg1)
		}
		t.SetReg(prog.RegResult, boolWord(found))
		return prog.Done
	}, prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(lsCurr), prog.R(prog.RegArg1)),
		prog.Writes(prog.R(prog.RegResult)),
		prog.Kills(prog.R(prog.RegResult)))
	return b.Build(id, name, listFrameWords)
}

func buildListInsert(id int, name string, headOf headOfFn) *prog.Op {
	b := prog.NewBuilder()
	lbInit := b.Label()
	lbRetry := b.Label()
	lbPos := b.Label()
	lbMake := b.Label()
	lbCAS := b.Label()

	b.Bind(lbInit)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		f.Set(lsNew, 0)
		return *lbRetry
	}, prog.Goto(lbRetry),
		prog.Writes(prog.F(lsNew)),
		prog.Kills(prog.F(lsNew)))
	emitListSearch(b, headOf, lbRetry, lbPos)

	b.Bind(lbPos)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(lsCurr)
		if curr != word.Null && t.Load(curr+listOffKey) == t.Reg(prog.RegArg1) {
			// Key already present. A node allocated on an earlier
			// attempt was never published; retire it.
			if n := f.GetPtr(lsNew); n != word.Null {
				retireNode(t, n)
			}
			t.SetReg(prog.RegResult, 0)
			return prog.Done
		}
		return *lbMake
	}, prog.Goto(lbMake), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(lsCurr), prog.R(prog.RegArg1), prog.F(lsNew)),
		prog.Writes(prog.R(prog.RegResult)))

	b.Bind(lbMake)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		n := f.GetPtr(lsNew)
		if n == word.Null {
			n = t.Alloc(listNodeLen)
			t.Store(n+listOffKey, t.Reg(prog.RegArg1))
			t.Store(n+listOffVal, t.Reg(prog.RegArg2))
			f.Set(lsNew, uint64(n))
		}
		t.Store(n+listOffNext, uint64(f.GetPtr(lsCurr)))
		return *lbCAS
	}, prog.Goto(lbCAS),
		prog.Reads(prog.F(lsNew), prog.F(lsCurr), prog.R(prog.RegArg1), prog.R(prog.RegArg2)),
		prog.LoadsPtr(prog.F(lsNew)))

	b.Bind(lbCAS)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		prev := word.Addr(f.Get(lsPrev))
		curr := f.GetPtr(lsCurr)
		n := f.GetPtr(lsNew)
		if t.CAS(prev, uint64(curr), uint64(n)) {
			t.SetReg(prog.RegResult, 1)
			return prog.Done
		}
		return *lbRetry
	}, prog.Goto(lbRetry), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(lsPrev), prog.F(lsCurr), prog.F(lsNew)),
		prog.Writes(prog.R(prog.RegResult)))
	return b.Build(id, name, listFrameWords)
}

func buildListDelete(id int, name string, headOf headOfFn) *prog.Op {
	b := prog.NewBuilder()
	lbRetry := b.Label()
	lbPos := b.Label()
	lbMark := b.Label()
	lbUnlink := b.Label()

	emitListSearch(b, headOf, lbRetry, lbPos)

	b.Bind(lbPos)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(lsCurr)
		if curr == word.Null || t.Load(curr+listOffKey) != t.Reg(prog.RegArg1) {
			t.SetReg(prog.RegResult, 0)
			return prog.Done
		}
		return *lbMark
	}, prog.Goto(lbMark), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(lsCurr), prog.R(prog.RegArg1)),
		prog.Writes(prog.R(prog.RegResult)))

	b.Bind(lbMark)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		curr := f.GetPtr(lsCurr)
		w := t.Load(curr + listOffNext)
		if word.IsMarked(w) {
			// Another deleter got here first; rediscover the key.
			return *lbRetry
		}
		if t.CAS(curr+listOffNext, w, word.Mark(word.Ptr(w))) {
			f.Set(lsNext, w)
			return *lbUnlink
		}
		return *lbMark
	}, prog.Goto(lbRetry, lbUnlink, lbMark),
		prog.Reads(prog.F(lsCurr)),
		prog.LoadsPtr(prog.F(lsNext)))

	b.Bind(lbUnlink)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		prev := word.Addr(f.Get(lsPrev))
		curr := f.GetPtr(lsCurr)
		next := word.Ptr(f.Get(lsNext))
		if t.CAS(prev, uint64(curr), uint64(next)) {
			retireNode(t, curr)
		}
		// If the unlink CAS failed, a concurrent traversal is helping;
		// it will retire the node. The delete linearized at the mark.
		t.SetReg(prog.RegResult, 1)
		return prog.Done
	}, prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(lsPrev), prog.F(lsCurr), prog.F(lsNext)),
		prog.Writes(prog.R(prog.RegResult)),
		prog.Kills(prog.R(prog.RegResult)))
	return b.Build(id, name, listFrameWords)
}

// --- Setup and validation helpers (host-side, cost-free) -------------------

// Seed inserts key/val pairs into the list at setup time, bypassing the
// simulation. Keys must be strictly increasing across calls.
func (l *List) Seed(a *alloc.Allocator, m *mem.Memory, keys []uint64, val uint64) {
	SeedChain(a, m, l.head, keys, val)
}

// SeedChain builds a sorted singly-linked chain of list nodes from headAddr
// (shared with the hash table's buckets).
func SeedChain(a *alloc.Allocator, m *mem.Memory, headAddr word.Addr, keys []uint64, val uint64) {
	prev := headAddr
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic(fmt.Sprintf("ds: seed keys must be strictly increasing (%d after %d)", k, keys[i-1]))
		}
		n := a.Alloc(0, listNodeLen)
		m.Poke(n+listOffKey, k)
		m.Poke(n+listOffVal, val)
		m.Poke(n+listOffNext, m.Peek(prev))
		m.Poke(prev, uint64(n))
		prev = n + listOffNext
	}
}

// Walk visits the chain from headAddr outside the simulation, returning the
// unmarked keys in order. It panics on a cycle longer than limit.
func Walk(m *mem.Memory, headAddr word.Addr, limit int) []uint64 {
	var keys []uint64
	walkUnmarked(m, headAddr, listOffNext, listOffKey, limit, func(k uint64) { keys = append(keys, k) })
	return keys
}

// WalkLen is len(Walk(...)) without building the slice.
func WalkLen(m *mem.Memory, headAddr word.Addr, limit int) int {
	n := 0
	walkUnmarked(m, headAddr, listOffNext, listOffKey, limit, func(uint64) { n++ })
	return n
}

// walkUnmarked visits, outside the simulation, the key of every unmarked
// node of the chain whose first link is the word at headAddr. A node's
// link is the word at offset next, its key the word at offset key. The
// list and every skip-list level share it. It panics on a cycle longer
// than limit.
func walkUnmarked(m *mem.Memory, headAddr, next, key word.Addr, limit int, visit func(uint64)) {
	w := m.Peek(headAddr)
	for n := 0; ; n++ {
		if n > limit {
			panic("ds: chain longer than limit (cycle?)")
		}
		p := word.Ptr(w)
		if p == word.Null {
			return
		}
		nx := m.Peek(p + next)
		if !word.IsMarked(nx) {
			visit(m.Peek(p + key))
		}
		w = nx
	}
}
