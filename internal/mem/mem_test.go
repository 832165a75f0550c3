package mem

import (
	"testing"

	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

func newMem(t *testing.T) *Memory {
	t.Helper()
	return New(Config{Words: 1 << 14})
}

func TestPlainReadWrite(t *testing.T) {
	m := newMem(t)
	m.WritePlain(0, 100, 42)
	if v, _ := m.ReadPlain(1, 100); v != 42 {
		t.Fatalf("read %d, want 42", v)
	}
}

func TestCASPlainSemantics(t *testing.T) {
	m := newMem(t)
	m.WritePlain(0, 64, 7)
	if ok, _ := m.CASPlain(0, 64, 8, 9); ok {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if ok, _ := m.CASPlain(0, 64, 7, 9); !ok {
		t.Fatal("CAS failed with correct expected value")
	}
	if v, _ := m.ReadPlain(0, 64); v != 9 {
		t.Fatalf("after CAS read %d, want 9", v)
	}
}

func TestAddPlain(t *testing.T) {
	m := newMem(t)
	m.WritePlain(0, 8, 10)
	if v, _ := m.AddPlain(0, 8, 5); v != 15 {
		t.Fatalf("AddPlain returned %d, want 15", v)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := newMem(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range read")
		}
	}()
	m.ReadPlain(0, word.Addr(m.Size()))
}

func TestTxBufferingInvisibleUntilCommit(t *testing.T) {
	m := newMem(t)
	m.WritePlain(1, 200, 1)
	tx := m.Begin(0)
	if _, _, r := m.TxRead(tx, 200); r != NoAbort {
		t.Fatal(r)
	}
	if _, r := m.TxWrite(tx, 200, 99); r != NoAbort {
		t.Fatal(r)
	}
	if m.Peek(200) != 1 {
		t.Fatal("buffered write leaked to memory before commit")
	}
	// Store-to-load forwarding inside the transaction.
	if v, _, _ := m.TxRead(tx, 200); v != 99 {
		t.Fatalf("tx read %d, want its own buffered 99", v)
	}
	if r := m.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
	if m.Peek(200) != 99 {
		t.Fatal("commit did not write back")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := newMem(t)
	m.WritePlain(1, 300, 5)
	tx := m.Begin(0)
	m.TxWrite(tx, 300, 6)
	m.AbortTx(0, Explicit)
	if r := m.FinishAbort(tx); r != Explicit {
		t.Fatalf("abort reason %v", r)
	}
	if m.Peek(300) != 5 {
		t.Fatal("aborted write became visible")
	}
	if m.Stats().ExplicitAborts != 1 {
		t.Fatal("explicit abort not counted")
	}
}

func TestStrongIsolationPlainReadDoomsWriter(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxWrite(tx, 400, 1)
	// Thread 1 reads the same line non-transactionally: requester wins.
	m.ReadPlain(1, 400)
	if doomed, reason := tx.Doomed(); !doomed || reason != Conflict {
		t.Fatalf("writer not doomed by plain read (doomed=%v reason=%v)", doomed, reason)
	}
	if r := m.Commit(tx); r != Conflict {
		t.Fatal("doomed transaction committed")
	}
	m.FinishAbort(tx)
	if m.Stats().ConflictAborts != 1 {
		t.Fatal("conflict abort not counted")
	}
}

func TestPlainWriteDoomsReaders(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 500)
	m.WritePlain(1, 500, 9)
	if doomed, _ := tx.Doomed(); !doomed {
		t.Fatal("reader not doomed by plain write")
	}
	m.FinishAbort(tx)
}

func TestPlainReadDoesNotDoomReaders(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 500)
	m.ReadPlain(1, 500)
	if doomed, _ := tx.Doomed(); doomed {
		t.Fatal("read-read is not a conflict")
	}
	if r := m.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
}

func TestTxTxConflictRequesterWins(t *testing.T) {
	m := newMem(t)
	tx0 := m.Begin(0)
	m.TxWrite(tx0, 600, 1)
	tx1 := m.Begin(1)
	// Thread 1's transactional read of the line dooms thread 0's writer.
	if _, _, r := m.TxRead(tx1, 600); r != NoAbort {
		t.Fatal(r)
	}
	if doomed, _ := tx0.Doomed(); !doomed {
		t.Fatal("existing writer should be doomed by the requester")
	}
	if r := m.Commit(tx1); r != NoAbort {
		t.Fatal("requester should proceed")
	}
	m.FinishAbort(tx0)
}

func TestTxWriteDoomsTxReaders(t *testing.T) {
	m := newMem(t)
	tx0 := m.Begin(0)
	m.TxRead(tx0, 700)
	tx1 := m.Begin(1)
	if _, r := m.TxWrite(tx1, 700, 3); r != NoAbort {
		t.Fatal(r)
	}
	if doomed, _ := tx0.Doomed(); !doomed {
		t.Fatal("reader should be doomed by a transactional writer")
	}
	if r := m.Commit(tx1); r != NoAbort {
		t.Fatal(r)
	}
	m.FinishAbort(tx0)
}

func TestTwoTxReadersCoexist(t *testing.T) {
	m := newMem(t)
	tx0, tx1 := m.Begin(0), m.Begin(1)
	m.TxRead(tx0, 800)
	m.TxRead(tx1, 800)
	if r := m.Commit(tx0); r != NoAbort {
		t.Fatal(r)
	}
	if r := m.Commit(tx1); r != NoAbort {
		t.Fatal(r)
	}
}

func TestVictimLinesReleasedOnDoom(t *testing.T) {
	m := newMem(t)
	tx0 := m.Begin(0)
	m.TxWrite(tx0, 900, 1)
	m.WritePlain(1, 900, 2) // dooms tx0, releases its ownership
	tx1 := m.Begin(1)
	if _, r := m.TxWrite(tx1, 900, 3); r != NoAbort {
		t.Fatal("line still owned by doomed transaction")
	}
	if r := m.Commit(tx1); r != NoAbort {
		t.Fatal(r)
	}
	m.FinishAbort(tx0)
	if m.Peek(900) != 3 {
		t.Fatalf("got %d, want 3", m.Peek(900))
	}
}

func TestNestedBeginPanics(t *testing.T) {
	m := newMem(t)
	m.Begin(0)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin should panic")
		}
	}()
	m.Begin(0)
}

type fixedPressure bool

func (p fixedPressure) SiblingActive(int) bool { return bool(p) }

func TestReadCapacityAbort(t *testing.T) {
	m := New(Config{
		Words:    1 << 16,
		Topology: topo.Topology{Cores: 1, ThreadsPerCore: 1, L1Lines: 16, ReadSetLines: 8},
	})
	tx := m.Begin(0)
	var last AbortReason
	for i := 0; i < 20; i++ {
		_, _, last = m.TxRead(tx, word.Addr(i*word.LineWords))
		if last != NoAbort {
			break
		}
	}
	if last != Capacity {
		t.Fatalf("expected capacity abort, got %v", last)
	}
	if r := m.FinishAbort(tx); r != Capacity {
		t.Fatal(r)
	}
	if m.Stats().CapacityAborts != 1 {
		t.Fatal("capacity abort not counted")
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	m := New(Config{
		Words:    1 << 16,
		Topology: topo.Topology{Cores: 1, ThreadsPerCore: 1, L1Lines: 4, ReadSetLines: 64},
	})
	tx := m.Begin(0)
	var last AbortReason
	for i := 0; i < 10; i++ {
		_, last = m.TxWrite(tx, word.Addr(i*word.LineWords), 1)
		if last != NoAbort {
			break
		}
	}
	if last != Capacity {
		t.Fatalf("expected capacity abort, got %v", last)
	}
	m.FinishAbort(tx)
}

func TestSiblingPressureHalvesCapacity(t *testing.T) {
	tp := topo.Topology{Cores: 1, ThreadsPerCore: 2, L1Lines: 8, ReadSetLines: 64}
	m := New(Config{Words: 1 << 16, Topology: tp, Pressure: fixedPressure(true)})
	tx := m.Begin(0)
	aborted := 0
	for i := 0; i < 8; i++ {
		if _, r := m.TxWrite(tx, word.Addr(i*word.LineWords), 1); r == Capacity {
			aborted = i
			break
		}
	}
	// Budget is L1Lines/2 = 4 lines under pressure.
	if aborted != 4 {
		t.Fatalf("capacity abort at line %d, want 4", aborted)
	}
	m.FinishAbort(tx)
}

func TestEvict(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 64)
	m.Evict(tx)
	if doomed, reason := tx.Doomed(); !doomed || reason != Capacity {
		t.Fatal("Evict should doom with Capacity")
	}
	m.FinishAbort(tx)
}

func TestPreemptAbort(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 64)
	m.AbortTx(0, Preempt)
	if r := m.FinishAbort(tx); r != Preempt {
		t.Fatal(r)
	}
	if m.Stats().PreemptAborts != 1 {
		t.Fatal("preempt abort not counted")
	}
}

func TestCoherenceMissAccounting(t *testing.T) {
	m := newMem(t)
	// First read: cold miss.
	if _, miss := m.ReadPlain(0, 100); !miss {
		t.Fatal("cold read should miss")
	}
	// Second read by the same thread: hit.
	if _, miss := m.ReadPlain(0, 100); miss {
		t.Fatal("warm read should hit")
	}
	// Another thread reads: miss (cache-to-cache), then hits.
	if _, miss := m.ReadPlain(1, 100); !miss {
		t.Fatal("other-thread first read should miss")
	}
	if _, miss := m.ReadPlain(1, 100); miss {
		t.Fatal("other-thread second read should hit")
	}
	// A write by thread 0 invalidates thread 1.
	if miss := m.WritePlain(0, 100, 1); !miss {
		t.Fatal("write with sharers should miss (invalidate)")
	}
	if miss := m.WritePlain(0, 101, 2); miss {
		t.Fatal("write to own exclusive line should hit")
	}
	if _, miss := m.ReadPlain(1, 100); !miss {
		t.Fatal("invalidated reader should miss")
	}
}

func TestCommittedSplitCounterVisibleAtomically(t *testing.T) {
	// The StackTrack protocol depends on the split counter and stack
	// contents becoming visible in the same instant.
	m := newMem(t)
	const stackW, counter = 1000, 1100
	tx := m.Begin(0)
	m.TxWrite(tx, stackW, 0xCAFE)
	m.TxWrite(tx, counter, 1)
	if m.Peek(stackW) != 0 || m.Peek(counter) != 0 {
		t.Fatal("buffered state visible early")
	}
	if r := m.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
	if m.Peek(stackW) != 0xCAFE || m.Peek(counter) != 1 {
		t.Fatal("commit incomplete")
	}
}

func TestStatsTotal(t *testing.T) {
	m := newMem(t)
	m.ReadPlain(0, 0)
	m.ReadPlain(1, 8)
	if got := m.Stats().PlainReads; got != 2 {
		t.Fatalf("total plain reads %d, want 2", got)
	}
	// A pooled Memory starts its next run with zeroed counters.
	m.Release()
	m = New(Config{Words: m.Size()})
	defer m.Release()
	if got := *m.Stats(); got != (Stats{}) {
		t.Fatalf("pooled memory starts with stats %+v", got)
	}
}

func TestTxReadOwnedLineUncachedWord(t *testing.T) {
	// Reading a word on a line the transaction owns for write — but has
	// not written that word — must return the pre-transaction value.
	m := newMem(t)
	m.WritePlain(1, 1001, 7)
	tx := m.Begin(0)
	m.TxWrite(tx, 1000, 1) // same line as 1001
	if v, _, _ := m.TxRead(tx, 1001); v != 7 {
		t.Fatalf("read %d, want pre-tx 7", v)
	}
	m.Commit(tx)
	if m.Peek(1001) != 7 {
		t.Fatal("unwritten word changed at commit")
	}
}

func TestReaderBitsClearedOnCommit(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 2000)
	m.Commit(tx)
	// A plain write by another thread must not doom anything now.
	m.WritePlain(1, 2000, 5)
	if m.Stats().ConflictAborts != 0 {
		t.Fatal("stale reader bit caused a doom after commit")
	}
}

func TestWriteBufferOverflowIsCapacity(t *testing.T) {
	m := New(Config{
		Words:    1 << 16,
		Topology: topo.Topology{Cores: 1, ThreadsPerCore: 1, L1Lines: 1 << 14, ReadSetLines: 1 << 14},
	})
	tx := m.Begin(0)
	var last AbortReason
	for i := 0; i < 1<<15; i++ {
		if _, last = m.TxWrite(tx, word.Addr(i*2), 1); last != NoAbort {
			break
		}
	}
	if last != Capacity {
		t.Fatalf("expected capacity abort from buffer overflow, got %v", last)
	}
	m.FinishAbort(tx)
}

func TestFalseSharingConflicts(t *testing.T) {
	// Two objects on the same cache line conflict even though their words
	// are disjoint — the granularity real HTM pays for.
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 3000)
	m.WritePlain(1, 3001, 9) // same 8-word line
	if doomed, _ := tx.Doomed(); !doomed {
		t.Fatal("false sharing not detected at line granularity")
	}
	m.FinishAbort(tx)
}

func TestCurrentTx(t *testing.T) {
	m := newMem(t)
	if m.CurrentTx(0) != nil {
		t.Fatal("phantom transaction")
	}
	tx := m.Begin(0)
	if m.CurrentTx(0) != tx {
		t.Fatal("current transaction not reported")
	}
	m.Commit(tx)
	if m.CurrentTx(0) != nil {
		t.Fatal("committed transaction still current")
	}
}

func TestDoomedTxOpsReturnReason(t *testing.T) {
	m := newMem(t)
	tx := m.Begin(0)
	m.TxRead(tx, 64)
	m.AbortTx(0, Explicit)
	if _, _, r := m.TxRead(tx, 128); r != Explicit {
		t.Fatalf("doomed read returned %v", r)
	}
	if _, r := m.TxWrite(tx, 128, 1); r != Explicit {
		t.Fatalf("doomed write returned %v", r)
	}
	m.FinishAbort(tx)
}

func TestAbortReasonStrings(t *testing.T) {
	for r, want := range map[AbortReason]string{
		NoAbort: "none", Conflict: "conflict", Capacity: "capacity",
		Preempt: "preempt", Explicit: "explicit", Unsupported: "unsupported",
	} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}
