package explore

import (
	"runtime"
	"testing"
	"unsafe"

	"stacktrack/internal/alloc"
	"stacktrack/internal/mem"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
)

// scripted is a policy that deviates on demand: Pick takes candidate 1
// whenever pick is set (the default rule takes 0 on an idle scheduler),
// and Preempt forces a switch whenever pre is set.
type scripted struct{ pick, pre bool }

func (p *scripted) Pick(s *sched.Scheduler, cands []int) int {
	if p.pick {
		return 1
	}
	return s.DefaultPick(cands)
}

func (p *scripted) Preempt(s *sched.Scheduler, ctx int) bool {
	return p.pre || s.DefaultPreempt(ctx)
}

// idleScheduler is a scheduler with two threads on two contexts that
// never runs: every occupant clock is 0, so the default rule picks
// candidate 0 and never preempts.
func idleScheduler() (*sched.Scheduler, []int) {
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	sc := sched.NewScheduler(m, topo.Haswell8Way(), 1)
	for i := 0; i < 2; i++ {
		sc.AddThread(sched.NewThread(i, m, a, uint64(i)+1), nil)
	}
	return sc, []int{sc.Threads()[0].HWContext(), sc.Threads()[1].HWContext()}
}

// TestRecordingChunkBoundaries fills the chunked log to each count around
// a chunk boundary. Entries are pick deviations, except every fifth,
// which is a preemption-only deviation; the entry that fills each chunk
// also takes a forced preemption, which merges through the recording's
// pointer into the chunk's last slot. A default decision, which records
// nothing, follows each entry.
func TestRecordingChunkBoundaries(t *testing.T) {
	sc, cands := idleScheduler()
	for _, entries := range []int{0, 1, recordChunk - 1, recordChunk, recordChunk + 1, 3 * recordChunk} {
		for _, start := range []uint64{0, 5000} {
			pol := &scripted{}
			r := NewRecording(pol, start)
			var want []Decision
			n := start
			for len(want) < entries {
				if len(want)%5 == 4 {
					// Default pick, forced preemption: the entry is
					// created by Preempt itself.
					*pol = scripted{pre: true}
					r.Pick(sc, cands)
					r.Preempt(sc, cands[0])
					want = append(want, Decision{N: n, Pick: -1, Pre: 1, Tid: int16(sc.OccupantID(cands[0]))})
				} else {
					full := len(want)%recordChunk == recordChunk-1
					*pol = scripted{pick: true, pre: full}
					r.Pick(sc, cands)
					r.Preempt(sc, cands[1])
					d := Decision{N: n, Pick: 1, Pre: -1, Tid: int16(sc.OccupantID(cands[1]))}
					if full {
						d.Pre = 1
					}
					want = append(want, d)
				}
				n++
				// A decision that follows the default rule records nothing.
				*pol = scripted{}
				r.Pick(sc, cands)
				r.Preempt(sc, cands[0])
				n++
			}
			got := r.Decisions()
			if entries == 0 {
				if got != nil {
					t.Fatalf("empty recording returned %d decisions, want nil", len(got))
				}
			} else if len(got) != len(want) || cap(got) != len(want) {
				t.Fatalf("%d entries from %d: got len %d cap %d", entries, start, len(got), cap(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d entries from %d: entry %d = %+v, want %+v", entries, start, i, got[i], want[i])
				}
			}
			if r.Steps() != n {
				t.Fatalf("%d entries from %d: %d steps, want %d", entries, start, r.Steps(), n)
			}
		}
	}
}

// TestLogEntrySizes pins the width of the per-deviation records: a
// recording's chunks, the flat log, ddmin's candidate subsets and every
// replay's Applied list each hold one entry per deviation.
func TestLogEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(Decision{}); got != 16 {
		t.Errorf("Decision is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Applied{}); got != 24 {
		t.Errorf("Applied is %d bytes, want 24", got)
	}
}

// maxRecordBytesPerDecision bounds the Go heap a recorded default random
// walk allocates per scheduling decision, set-up included. With 16-byte
// Decisions the chunked log measures about 24 B; 32-byte Decisions
// measure about 48 B, and a log that regrows one slice about 146 B.
const maxRecordBytesPerDecision = 32

func TestRecordAllocationPerDecision(t *testing.T) {
	Record(RunConfig{}) // warm package-level state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Record(RunConfig{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perDecision := float64(after.TotalAlloc-before.TotalAlloc) / float64(out.Steps)
	t.Logf("%.1f B/decision over %d decisions, %d deviations", perDecision, out.Steps, len(out.Log.Decisions))
	if perDecision > maxRecordBytesPerDecision {
		t.Fatalf("recorded run allocated %.1f B per decision, bound %d", perDecision, maxRecordBytesPerDecision)
	}
}

// BenchmarkRecord is one default recorded run: list, StackTrack, 7
// threads, random walk.
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var steps uint64
	for i := 0; i < b.N; i++ {
		out, err := Record(RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		steps += out.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/decision")
}

// BenchmarkReplayLog replays one default recorded log (list, StackTrack, 7
// threads, random walk): the path every ddmin oracle run and every
// narrative takes, Applied list included.
func BenchmarkReplayLog(b *testing.B) {
	rec, err := Record(RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := ReplayLog(rec.Log, 0)
		if err != nil {
			b.Fatal(err)
		}
		if out.Verdict.Failed != rec.Verdict.Failed {
			b.Fatalf("replay verdict %s, recorded %s", out.Verdict, rec.Verdict)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*rec.Steps), "ns/decision")
}
