package stacktrack_test

import (
	"strings"
	"testing"

	"stacktrack"
)

func TestFacadeRun(t *testing.T) {
	res, err := stacktrack.Run(stacktrack.Config{
		Structure:     stacktrack.StructList,
		Scheme:        stacktrack.SchemeStackTrack,
		Threads:       2,
		InitialSize:   100,
		KeyRange:      200,
		WarmupCycles:  stacktrack.FromSeconds(0.0005),
		MeasureCycles: stacktrack.FromSeconds(0.002),
		Validate:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.UAFReads != 0 {
		t.Fatalf("ops=%d uaf=%d", res.Ops, res.UAFReads)
	}
}

func TestFacadeExperimentTable(t *testing.T) {
	opts := stacktrack.QuickOptions()
	opts.Threads = []int{1, 2}
	opts.MeasureMs = 1
	opts.WarmupMs = 0.2
	tb, err := stacktrack.Figure2Hash(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 2", "threads", "StackTrack"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tb.CSV(&csv)
	if !strings.HasPrefix(csv.String(), "threads,") {
		t.Fatalf("CSV header malformed: %q", csv.String())
	}
}

// TestFacadeSim builds a tiny custom structure (a shared counter cell) on
// the machine-level API and runs it under StackTrack.
func TestFacadeSim(t *testing.T) {
	sim, err := stacktrack.NewSim(stacktrack.SimConfig{Threads: 3, Seed: 5, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	cell := sim.Alloc.Static(1)

	b := &stacktrack.OpBuilder{}
	lbRetry := b.Label()
	b.Add(func(th *stacktrack.Thread, f stacktrack.Frame) int { return *lbRetry })
	b.Bind(lbRetry)
	b.Add(func(th *stacktrack.Thread, f stacktrack.Frame) int {
		v := th.Load(cell)
		if th.CAS(cell, v, v+1) {
			th.SetReg(stacktrack.RegResult, v+1)
			return stacktrack.Done
		}
		return *lbRetry
	})
	op := b.Build(0, "counter.Inc", 1)

	const perThread = 50
	sim.Start(func(th *stacktrack.Thread) *stacktrack.Driver {
		n := 0
		return &stacktrack.Driver{
			Runner: sim.NewRunner(),
			Next: func(th *stacktrack.Thread) (*stacktrack.Op, [3]uint64, bool) {
				if n >= perThread {
					return nil, [3]uint64{}, false
				}
				n++
				return op, [3]uint64{}, true
			},
		}
	})
	sim.Run(stacktrack.FromSeconds(1))
	sim.Drain()

	if got := sim.Memory.Peek(cell); got != 3*perThread {
		t.Fatalf("counter = %d, want %d", got, 3*perThread)
	}
	for _, th := range sim.Threads {
		if !th.Done() {
			t.Fatal("thread did not finish its workload")
		}
	}
}

func TestFacadeSimBadScheme(t *testing.T) {
	if _, err := stacktrack.NewSim(stacktrack.SimConfig{Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestFacadeSimOversizedTopology(t *testing.T) {
	tp := stacktrack.Haswell8Way()
	tp.Cores = 64/tp.ThreadsPerCore + 1
	_, err := stacktrack.NewSim(stacktrack.SimConfig{Topology: tp})
	if err == nil || !strings.Contains(err.Error(), "hardware contexts") {
		t.Fatalf("%d-context topology: err = %v, want a hardware-context limit error", tp.Contexts(), err)
	}
}
