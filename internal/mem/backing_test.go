package mem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"stacktrack/internal/word"
)

// TestReleaseReturnsZeroedMemory: a released Memory comes back from the
// pool for the next New of its size, and every word and line table is
// back to zero — including the lines a transaction and the coherence
// model touched.
func TestReleaseReturnsZeroedMemory(t *testing.T) {
	const words = 3 << 10 // a size no other test releases
	m := New(Config{Words: words})
	for a := word.Addr(0); a < words; a += 7 {
		m.WritePlain(int(a)%4, a, uint64(a)+1)
		m.ReadPlain(int(a+1)%4, a)
	}
	tx := m.Begin(1) // left in flight: it holds a read line and a write line
	m.TxRead(tx, 8)
	m.TxWrite(tx, 100, 5)
	m.Release()

	r := New(Config{Words: words})
	if r != m {
		t.Fatal("New did not reuse the released Memory")
	}
	if r.hi != 0 || r.liveTx != 0 {
		t.Fatalf("reused Memory has hi=%d liveTx=%d, want 0, 0", r.hi, r.liveTx)
	}
	for i, v := range r.words {
		if v != 0 {
			t.Fatalf("word %d = %d after Release", i, v)
		}
	}
	for l := range r.lineReaders {
		if r.lineReaders[l] != 0 || r.lineWriter[l] != 0 || r.sharers[l] != 0 || r.lastW[l] != 0 {
			t.Fatalf("line %d metadata not cleared after Release", l)
		}
	}
}

// TestUnreleasedMemoryIsUnmapped: a Memory nobody Releases (a cancelled
// run, a recovered crash) gives its backing store back once it is
// unreachable. Sixty-four leaked 4M-word memories would grow the
// address space by about 2.9 GiB.
func TestUnreleasedMemoryIsUnmapped(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads VmSize from /proc/self/status")
	}
	const words = 1 << 22
	size := int64(8*words + 28*(words/word.LineWords))
	runtime.GC()
	before := vmSize(t)
	for i := 0; i < 64; i++ {
		m := New(Config{Words: words})
		m.Poke(word.Addr(i*4096), 1)
		runtime.GC()
	}
	if grew := vmSize(t) - before; grew > 8*size {
		t.Fatalf("address space grew by %d MiB over 64 dropped memories of %d MiB each",
			grew>>20, size>>20)
	}
}

// vmSize returns the process's virtual memory size in bytes.
func vmSize(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmSize:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmSize line in /proc/self/status")
	return 0
}
