package core

import (
	"testing"

	"stacktrack/internal/prog/dataflow"
	"stacktrack/internal/word"
)

// BenchmarkScan times one complete SCAN_AND_FREE over a fixed world:
// seven victims each mid-operation with a 32-word frame under a track
// mask that keeps every other slot and four registers, and a scanner
// whose eight retired objects all sit in the last victim's tracked slots.
// Every scan walks every victim and frees nothing, so each iteration does
// the same work. ns/word is host time per scanned (not elided) word.
func BenchmarkScan(b *testing.B) {
	const frame, held = 32, 8
	mask := dataflow.TrackMask{FrameWords: frame, Frame: make([]bool, frame)}
	for i := 0; i < frame; i += 2 {
		mask.Frame[i] = true
	}
	for r := 0; r < 4; r++ {
		mask.Regs[r] = true
	}
	for _, v := range []struct {
		name   string
		hashed bool
	}{{"per-pointer", false}, {"hashed", true}} {
		b.Run(v.name, func(b *testing.B) {
			w := newWorld(b, 8, Config{HashedScan: v.hashed})
			w.st.SetMasks(map[int]dataflow.TrackMask{0: mask})
			scanner, last := w.ts[0], w.ts[len(w.ts)-1]
			for _, victim := range w.ts[1:] {
				fakeActive(w.m, victim, frame)
			}
			for i := 0; i < held; i++ {
				obj := w.al.Alloc(0, 4)
				w.m.Poke(last.StackBase+word.Addr(frame-2-2*i), uint64(obj))
				w.st.Retire(scanner, obj)
			}
			w.st.scanAndFreeSync(scanner) // hand the scratch buffers back
			before := w.st.TotalStats().ScannedWords
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.st.scanAndFreeSync(scanner)
			}
			b.StopTimer()
			if w.st.PendingFrees(scanner) != held {
				b.Fatalf("%d objects pending after the scans, want all %d held", w.st.PendingFrees(scanner), held)
			}
			words := w.st.TotalStats().ScannedWords - before
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
		})
	}
}
