package sched

// Host-performance guards for the decision loop: the incrementally
// maintained ready structure must make zero Go allocations per decision
// in steady state, and must stay pick-for-pick identical to the reference
// per-decision rescan (reference_test.go).

import (
	"fmt"
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/topo"
)

func newPerfWorld(nThreads int) *Scheduler {
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	sc := NewScheduler(m, topo.Haswell8Way(), 1)
	for i := 0; i < nThreads; i++ {
		th := NewThread(i, m, a, uint64(i)+100)
		sc.AddThread(th, &counterStepper{cost: cost.Cycles(90 + 7*i)})
	}
	return sc
}

// TestDecisionLoopZeroAlloc pins the tentpole contract: advancing the
// schedule performs zero steady-state Go allocations per decision.
func TestDecisionLoopZeroAlloc(t *testing.T) {
	sc := newPerfWorld(8)
	horizon := cost.Cycles(50_000)
	sc.Run(horizon) // establish counter lanes and buffers
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 20_000
		sc.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("decision loop allocated %.2f times per run, want 0 (decisions so far: %d)",
			allocs, sc.Decisions())
	}
}

// TestReadyStructureMatchesLegacyScan advances Run and the reference
// rescan model over the same workload in lockstep and demands identical
// decision counts and thread clocks at every horizon — including under
// oversubscription, where rotation side effects are the risky part.
func TestReadyStructureMatchesLegacyScan(t *testing.T) {
	for _, threads := range []int{4, 8, 24} { // 24 > 8 contexts: oversubscribed
		fast := newPerfWorld(threads)
		ref := newPerfWorld(threads)
		for h := cost.Cycles(10_000); h <= 200_000; h += 10_000 {
			fast.Run(h)
			refRun(ref, h)
			sameSchedule(t, fmt.Sprintf("threads=%d horizon=%d", threads, h), fast, ref)
		}
	}
}

// TestOversizedTopologyPanics: the ready structure's dirty mask covers 64
// contexts; a larger topology is rejected at construction.
func TestOversizedTopologyPanics(t *testing.T) {
	tp := topo.Haswell8Way()
	tp.Cores = MaxContexts/tp.ThreadsPerCore + 1
	defer func() {
		if recover() == nil {
			t.Fatalf("NewScheduler accepted %d contexts", tp.Contexts())
		}
	}()
	NewScheduler(mem.New(mem.Config{Words: 1 << 12}), tp, 1)
}

func BenchmarkDecisionLoop(b *testing.B) {
	for _, threads := range []int{8, 24} {
		name := fmt.Sprintf("%dt", threads)
		if threads > 8 {
			name += "-oversubscribed"
		}
		b.Run(name, func(b *testing.B) {
			sc := newPerfWorld(threads)
			horizon := cost.Cycles(10_000)
			sc.Run(horizon)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				horizon += 5_000
				sc.Run(horizon)
			}
			b.StopTimer()
			if n := sc.Decisions(); n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/decision")
			}
		})
	}
}
