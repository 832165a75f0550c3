package ds

// The Michael–Scott lock-free queue [PODC'96], the paper's high-contention
// benchmark: every operation hammers the head and tail words. A dummy node
// anchors the queue; dequeue retires the old dummy.

import (
	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// Queue node layout (2-word class).
const (
	qOffVal  = 0
	qOffNext = 1
	qNodeLen = 2
)

// Frame slots for queue operations.
const (
	qsNode      = 0 // enqueue: new node / dequeue: observed head
	qsTail      = 1
	qsNext      = 2
	qsHead      = 0 // alias of qsNode for dequeue/peek readability
	qFrameWords = 3
)

// Queue is the Michael–Scott queue rooted at static head/tail words.
type Queue struct {
	head word.Addr // points at the dummy node
	tail word.Addr

	OpEnqueue *prog.Op
	OpDequeue *prog.Op
	OpPeek    *prog.Op
}

// Head returns the address of the head anchor word (test support).
func (q *Queue) Head() word.Addr { return q.head }

// Tail returns the address of the tail anchor word (test support).
func (q *Queue) Tail() word.Addr { return q.tail }

// NewQueue allocates the anchor words and the initial dummy node and
// compiles the operations.
func NewQueue(a *alloc.Allocator) *Queue {
	q := &Queue{head: a.Static(1), tail: a.Static(1)}
	dummy := a.Alloc(0, qNodeLen)
	a.Memory().Poke(q.head, uint64(dummy))
	a.Memory().Poke(q.tail, uint64(dummy))
	q.OpEnqueue = q.buildEnqueue()
	q.OpDequeue = q.buildDequeue()
	q.OpPeek = q.buildPeek()
	return q
}

func (q *Queue) buildEnqueue() *prog.Op {
	b := prog.NewBuilder()
	lbRetry := b.Label()
	lbSwing := b.Label()

	b.Add(func(t *sched.Thread, f sched.Frame) int {
		n := t.Alloc(qNodeLen)
		t.Store(n+qOffVal, t.Reg(prog.RegArg1))
		t.Store(n+qOffNext, 0)
		f.Set(qsNode, uint64(n))
		return *lbRetry
	}, prog.Goto(lbRetry),
		prog.Reads(prog.R(prog.RegArg1)),
		prog.LoadsPtr(prog.F(qsNode)),
		prog.Kills(prog.F(qsNode)))

	b.Bind(lbRetry)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		tail := word.Ptr(t.ProtectLoad(0, q.tail))
		f.Set(qsTail, uint64(tail))
		f.Set(qsNext, t.Load(tail+qOffNext))
		return *lbSwing
	}, prog.Goto(lbSwing),
		prog.LoadsPtr(prog.F(qsTail), prog.F(qsNext)),
		prog.Kills(prog.F(qsTail), prog.F(qsNext)))

	b.Bind(lbSwing)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		tail := f.GetPtr(qsTail)
		next := f.Get(qsNext)
		if t.Load(q.tail) != uint64(tail) {
			return *lbRetry // tail moved under us
		}
		if next != 0 {
			// Help swing the lagging tail forward.
			t.CAS(q.tail, uint64(tail), next)
			return *lbRetry
		}
		n := f.GetPtr(qsNode)
		if t.CAS(tail+qOffNext, 0, uint64(n)) {
			t.CAS(q.tail, uint64(tail), uint64(n))
			t.SetReg(prog.RegResult, 1)
			return prog.Done
		}
		return *lbRetry
	}, prog.Goto(lbRetry), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(qsTail), prog.F(qsNext), prog.F(qsNode)),
		prog.Writes(prog.R(prog.RegResult)))
	return b.Build(OpEnqueue, "queue.Enqueue", qFrameWords)
}

func (q *Queue) buildDequeue() *prog.Op {
	b := prog.NewBuilder()
	lbRetry := b.Label()
	lbDecide := b.Label()

	b.Add(func(t *sched.Thread, f sched.Frame) int { return *lbRetry },
		prog.Goto(lbRetry), prog.NoEffects())

	b.Bind(lbRetry)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		head := word.Ptr(t.ProtectLoad(0, q.head))
		f.Set(qsHead, uint64(head))
		f.Set(qsTail, t.Load(q.tail))
		w := t.ProtectLoad(1, head+qOffNext)
		f.Set(qsNext, w)
		return *lbDecide
	}, prog.Goto(lbDecide),
		prog.LoadsPtr(prog.F(qsHead), prog.F(qsTail), prog.F(qsNext)),
		prog.Kills(prog.F(qsHead), prog.F(qsTail), prog.F(qsNext)))

	b.Bind(lbDecide)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		head := f.GetPtr(qsHead)
		tail := word.Ptr(f.Get(qsTail))
		next := word.Ptr(f.Get(qsNext))
		if t.Load(q.head) != uint64(head) {
			return *lbRetry // head moved; our snapshot is stale
		}
		if head == tail {
			if next == word.Null {
				t.SetReg(prog.RegResult, 0) // empty
				return prog.Done
			}
			t.CAS(q.tail, uint64(tail), uint64(next)) // help
			return *lbRetry
		}
		val := t.Load(next + qOffVal)
		if t.CAS(q.head, uint64(head), uint64(next)) {
			retireNode(t, head) // the old dummy
			t.SetReg(prog.RegResult, val)
			return prog.Done
		}
		return *lbRetry
	}, prog.Goto(lbRetry), prog.SetsResult(), prog.Returns(),
		prog.Reads(prog.F(qsHead), prog.F(qsTail), prog.F(qsNext)),
		// The dequeued value is an arbitrary workload word that can
		// collide numerically with a heap address, so R0 is declared
		// pointer-bearing rather than Writes.
		prog.LoadsPtr(prog.R(prog.RegResult)))
	return b.Build(OpDequeue, "queue.Dequeue", qFrameWords)
}

func (q *Queue) buildPeek() *prog.Op {
	b := prog.NewBuilder()
	lbRetry := b.Label()

	b.Add(func(t *sched.Thread, f sched.Frame) int { return *lbRetry },
		prog.Goto(lbRetry), prog.NoEffects())

	b.Bind(lbRetry)
	b.Add(func(t *sched.Thread, f sched.Frame) int {
		head := word.Ptr(t.ProtectLoad(0, q.head))
		w := t.ProtectLoad(1, head+qOffNext)
		next := word.Ptr(w)
		if t.Load(q.head) != uint64(head) {
			return *lbRetry
		}
		if next == word.Null {
			t.SetReg(prog.RegResult, 0)
			return prog.Done
		}
		t.SetReg(prog.RegResult, t.Load(next+qOffVal))
		return prog.Done
	}, prog.Goto(lbRetry), prog.SetsResult(), prog.Returns(),
		// Same as Dequeue: the peeked value may alias a heap address.
		prog.LoadsPtr(prog.R(prog.RegResult)))
	return b.Build(OpPeek, "queue.Peek", qFrameWords)
}

// --- Setup and validation helpers -------------------------------------------

// Seed enqueues values at setup time, bypassing the simulation.
func (q *Queue) Seed(a *alloc.Allocator, m *mem.Memory, vals []uint64) {
	for _, v := range vals {
		n := a.Alloc(0, qNodeLen)
		m.Poke(n+qOffVal, v)
		m.Poke(n+qOffNext, 0)
		tail := word.Addr(m.Peek(q.tail))
		m.Poke(tail+qOffNext, uint64(n))
		m.Poke(q.tail, uint64(n))
	}
}

// Drain returns the remaining values, outside the simulation.
func (q *Queue) Drain(m *mem.Memory, limit int) []uint64 {
	var vals []uint64
	q.walk(m, limit, func(v uint64) { vals = append(vals, v) })
	return vals
}

// Len is len(q.Drain(...)) without building the slice.
func (q *Queue) Len(m *mem.Memory, limit int) int {
	n := 0
	q.walk(m, limit, func(uint64) { n++ })
	return n
}

// walk visits the remaining values in order, outside the simulation.
func (q *Queue) walk(m *mem.Memory, limit int, visit func(uint64)) {
	head := word.Addr(m.Peek(q.head))
	for n := 0; ; n++ {
		if n > limit {
			panic("ds: queue longer than limit (cycle?)")
		}
		next := word.Addr(m.Peek(head + qOffNext))
		if next == word.Null {
			return
		}
		visit(m.Peek(next + qOffVal))
		head = next
	}
}
