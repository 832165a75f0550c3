package mem

// Host-performance guards for the non-transactional fast path: the
// branch-lean ReadPlain/WritePlain route must not allocate in steady
// state, and it must produce the same simulated results as the observed
// slow route (the golden digest sweep in internal/bench covers the latter
// end to end; here we pin the allocation contract and benchmark the
// paths in isolation).

import (
	"testing"

	"stacktrack/internal/word"
)

// TestPlainFastPathZeroAlloc pins the tentpole contract: a plain read or
// write on the fast path performs zero Go allocations.
func TestPlainFastPathZeroAlloc(t *testing.T) {
	m := New(Config{Words: 1 << 14})
	// Touch the region once so the high-watermark and counter lanes are
	// established; steady state begins after that.
	for a := word.Addr(0); a < 1<<12; a++ {
		m.WritePlain(0, a, uint64(a))
		m.ReadPlain(1, a)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for a := word.Addr(0); a < 1<<10; a++ {
			m.WritePlain(0, a, 1)
			m.ReadPlain(1, a)
		}
	})
	if allocs != 0 {
		t.Fatalf("plain fast path allocated %.2f times per run, want 0", allocs)
	}
}

// TestFastPathDisabledUnderObserver verifies the devirtualization seam:
// installing an observer or starting a transaction routes accesses off
// the fast path, and removing it routes them back.
func TestFastPathDisabledUnderObserver(t *testing.T) {
	m := New(Config{Words: 1 << 12})
	if !m.fastPlain {
		t.Fatal("fresh memory should start on the fast path")
	}
	m.SetObserver(countingObserver{})
	if m.fastPlain {
		t.Fatal("fast path must be off while an observer is installed")
	}
	m.SetObserver(nil)
	if !m.fastPlain {
		t.Fatal("fast path must come back when the observer is removed")
	}
	tx := m.Begin(0)
	if m.fastPlain {
		t.Fatal("fast path must be off while a transaction is live")
	}
	if r := m.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
	if !m.fastPlain {
		t.Fatal("fast path must come back when the last transaction ends")
	}
}

type countingObserver struct{ Observer }

// nopObserver ignores every notification; installing it measures the
// slow (observed) plain-access route without any observer work.
type nopObserver struct{}

func (nopObserver) PlainRead(int, word.Addr)            {}
func (nopObserver) PlainWrite(int, word.Addr)           {}
func (nopObserver) SyncRMW(int, word.Addr, bool)        {}
func (nopObserver) TxBegin(int)                         {}
func (nopObserver) TxRead(int, word.Addr)               {}
func (nopObserver) TxWrite(int, word.Addr)              {}
func (nopObserver) TxCommit(int)                        {}
func (nopObserver) SyncHint(int, word.Addr, bool, bool) {}

// plainModes are the two plain-access routes: the fast path, and the slow
// path forced by a no-op observer.
var plainModes = []struct {
	name string
	obs  Observer
}{{"fast", nil}, {"observed", nopObserver{}}}

func BenchmarkPlainRead(b *testing.B) {
	for _, mode := range plainModes {
		b.Run(mode.name, func(b *testing.B) {
			m := New(Config{Words: 1 << 14})
			m.SetObserver(mode.obs)
			for a := word.Addr(0); a < 1<<12; a++ {
				m.WritePlain(0, a, uint64(a))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ReadPlain(1, word.Addr(i)&(1<<12-1))
			}
		})
	}
}

func BenchmarkPlainWrite(b *testing.B) {
	for _, mode := range plainModes {
		b.Run(mode.name, func(b *testing.B) {
			m := New(Config{Words: 1 << 14})
			m.SetObserver(mode.obs)
			for a := word.Addr(0); a < 1<<12; a++ {
				m.WritePlain(0, a, uint64(a))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.WritePlain(0, word.Addr(i)&(1<<12-1), uint64(i))
			}
		})
	}
}

// BenchmarkTxSegment measures a short transactional segment (begin, a few
// reads and buffered writes, commit) — the HTM hot path.
func BenchmarkTxSegment(b *testing.B) {
	m := New(Config{Words: 1 << 14})
	for a := word.Addr(0); a < 1<<10; a++ {
		m.WritePlain(0, a, uint64(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin(0)
		base := word.Addr(i) & (1<<10 - 8)
		for k := word.Addr(0); k < 4; k++ {
			if _, _, r := m.TxRead(tx, base+k); r != NoAbort {
				b.Fatal(r)
			}
		}
		if _, r := m.TxWrite(tx, base, uint64(i)); r != NoAbort {
			b.Fatal(r)
		}
		if r := m.Commit(tx); r != NoAbort {
			b.Fatal(r)
		}
	}
}

// stackSegmentWords are the 33 words a StackTrack-shaped segment stores:
// a stack frame spread over 7 lines.
var stackSegmentWords = func() (ws [33]word.Addr) {
	for w := range ws {
		ws[w] = 4096 + word.Addr(w%7*word.LineWords+w/7)
	}
	return ws
}()

// txStackSegment runs one transactional segment shaped like a measured
// StackTrack skip-list segment: 33 words stored over 7 lines, then 70
// reads of which 49 forward from the buffer and 21 go to committed heap
// words, then commit.
func txStackSegment(m *Memory, i int) AbortReason {
	tx := m.Begin(0)
	for w, a := range stackSegmentWords {
		if _, r := m.TxWrite(tx, a, uint64(i+w)); r != NoAbort {
			return r
		}
	}
	heap := word.Addr(i*24) & (1<<10 - 1)
	for k := 0; k < 70; k++ {
		a := heap + word.Addr(k)
		if k%10 < 7 {
			a = stackSegmentWords[k%len(stackSegmentWords)]
		}
		if _, _, r := m.TxRead(tx, a); r != NoAbort {
			return r
		}
	}
	return m.Commit(tx)
}

// TestTxStackSegmentZeroAlloc pins that a transactional segment performs
// no Go allocation once the thread's descriptor has been warmed up.
func TestTxStackSegmentZeroAlloc(t *testing.T) {
	m := New(Config{Words: 1 << 14})
	for i := 0; i < 4; i++ {
		if r := txStackSegment(m, i); r != NoAbort {
			t.Fatal(r)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r := txStackSegment(m, 5); r != NoAbort {
			t.Fatal(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("transactional segment allocated %.2f times per run, want 0", allocs)
	}
}

// BenchmarkTxStackSegment measures the StackTrack-shaped segment of
// txStackSegment: buffering, store-to-load forwarding and line-by-line
// write-back.
func BenchmarkTxStackSegment(b *testing.B) {
	m := New(Config{Words: 1 << 14})
	for a := word.Addr(0); a < 1<<11; a++ {
		m.WritePlain(0, a, uint64(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := txStackSegment(m, i); r != NoAbort {
			b.Fatal(r)
		}
	}
}
