package mem

// Tests for the line-indexed speculative store buffer: store-to-load
// forwarding, write-back at commit, ownership handover when another
// transaction steals a line, and the buffer's round trip through a
// snapshot.

import (
	"reflect"
	"testing"

	"stacktrack/internal/word"
)

func TestTxForwardingAcrossLines(t *testing.T) {
	m := newMem(t)
	for a := word.Addr(0); a < 64; a++ {
		m.WritePlain(1, 1024+a, 1000+uint64(a))
	}
	tx := m.Begin(0)
	// Words on four lines, some stored twice; the last store wins.
	stores := []struct {
		a word.Addr
		v uint64
	}{{1024, 1}, {1041, 2}, {1031, 3}, {1024, 4}, {1056, 5}, {1041, 6}, {1025, 7}, {1063, 8}}
	want := map[word.Addr]uint64{}
	for _, s := range stores {
		if _, r := m.TxWrite(tx, s.a, s.v); r != NoAbort {
			t.Fatal(r)
		}
		want[s.a] = s.v
		if v, miss, r := m.TxRead(tx, s.a); r != NoAbort || miss || v != s.v {
			t.Fatalf("read %d after storing %d: got %d (miss %v, %v)", s.a, s.v, v, miss, r)
		}
	}
	for a := word.Addr(1024); a < 1088; a++ {
		v, _, r := m.TxRead(tx, a)
		if r != NoAbort {
			t.Fatal(r)
		}
		if w, ok := want[a]; ok && v != w || !ok && v != 1000+uint64(a-1024) {
			t.Fatalf("tx read of %d = %d", a, v)
		}
	}
	if r := m.Commit(tx); r != NoAbort {
		t.Fatal(r)
	}
	if got := m.Stats().CommittedActions; got != uint64(len(want)) {
		t.Fatalf("CommittedActions = %d, want %d distinct words", got, len(want))
	}
	for a := word.Addr(1024); a < 1088; a++ {
		w, ok := want[a]
		if !ok {
			w = 1000 + uint64(a-1024)
		}
		if got := m.Peek(a); got != w {
			t.Fatalf("after commit word %d = %d, want %d", a, got, w)
		}
	}
}

// TestStolenLineForwardsOwnersValue: once another transaction's write
// takes a line, reads by the new owner see its own stores and committed
// memory, never the doomed victim's buffered words.
func TestStolenLineForwardsOwnersValue(t *testing.T) {
	m := newMem(t)
	m.WritePlain(2, 100, 50)
	victim := m.Begin(0)
	m.TxWrite(victim, 200, 1) // victim's line 0
	m.TxWrite(victim, 100, 2) // victim's line 1
	m.TxWrite(victim, 101, 3)
	owner := m.Begin(1)
	if _, r := m.TxWrite(owner, 102, 9); r != NoAbort { // owner's line 0
		t.Fatal(r)
	}
	if doomed, _ := victim.Doomed(); !doomed {
		t.Fatal("victim not doomed by the stealing write")
	}
	if v, _, _ := m.TxRead(owner, 100); v != 50 {
		t.Fatalf("new owner read %d at 100, want committed 50", v)
	}
	if v, _, _ := m.TxRead(owner, 101); v != 0 {
		t.Fatalf("new owner read %d at 101, want committed 0", v)
	}
	if v, _, _ := m.TxRead(owner, 102); v != 9 {
		t.Fatalf("new owner read %d at 102, want its own 9", v)
	}
	if r := m.Commit(owner); r != NoAbort {
		t.Fatal(r)
	}
	if r := m.Commit(victim); r != Conflict {
		t.Fatalf("victim commit returned %v, want conflict", r)
	}
	m.FinishAbort(victim)
	for a, w := range map[word.Addr]uint64{100: 50, 101: 0, 102: 9, 200: 0} {
		if got := m.Peek(a); got != w {
			t.Fatalf("word %d = %d, want %d", a, got, w)
		}
	}
}

// TestTxBufferStateRoundTrip saves a memory holding an active
// transaction, a doomed unacknowledged one whose line the active one
// stole, and an idle one, restores it into a fresh memory and saves
// again: the states must match, and the restored buffers must work.
func TestTxBufferStateRoundTrip(t *testing.T) {
	m := newMem(t)
	m.WritePlain(3, 511, 77)
	idle := m.Begin(2)
	m.TxWrite(idle, 900, 4)
	m.Commit(idle)
	doomed := m.Begin(1)
	m.TxWrite(doomed, 300, 10)
	m.TxWrite(doomed, 504, 11)
	m.TxWrite(doomed, 505, 12)
	active := m.Begin(0)
	for _, s := range []struct {
		a word.Addr
		v uint64
	}{{600, 20}, {610, 22}, {505, 21}, {600, 23}, {507, 24}} {
		if _, r := m.TxWrite(active, s.a, s.v); r != NoAbort {
			t.Fatal(r)
		}
	}
	if d, _ := doomed.Doomed(); !d {
		t.Fatal("setup: line 63 not stolen from thread 1")
	}
	s1 := m.SaveState()

	r := New(Config{Words: 1 << 14})
	r.RestoreState(s1)
	if s2 := r.SaveState(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("state changed across a restore:\n%+v\n%+v", s1, s2)
	}

	tx := r.CurrentTx(0)
	for a, w := range map[word.Addr]uint64{600: 23, 505: 21, 610: 22, 507: 24, 504: 0, 511: 77} {
		if v, _, _ := r.TxRead(tx, a); v != w {
			t.Fatalf("restored read of %d = %d, want %d", a, v, w)
		}
	}
	if _, res := r.TxWrite(tx, 700, 25); res != NoAbort {
		t.Fatal(res)
	}
	if v, _, _ := r.TxRead(tx, 700); v != 25 {
		t.Fatalf("restored transaction read %d at a new line, want 25", v)
	}
	if res := r.Commit(tx); res != NoAbort {
		t.Fatal(res)
	}
	for a, w := range map[word.Addr]uint64{600: 23, 505: 21, 610: 22, 507: 24, 700: 25, 300: 0, 504: 0, 900: 4} {
		if got := r.Peek(a); got != w {
			t.Fatalf("after commit word %d = %d, want %d", a, got, w)
		}
	}
	if res := r.Commit(r.CurrentTx(1)); res != Conflict {
		t.Fatalf("restored doomed transaction committed: %v", res)
	}
}
