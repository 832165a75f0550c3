package bench

// E17 — host-throughput selftest. Every other experiment measures the
// simulated machine; this one measures the simulator itself: how many
// scheduling decisions (basic blocks retired, blocked-wait polls, and
// preemption decisions — the unit of interpreter work) per host second
// the core sustains on the Figure 1 list sweep. It runs the sweep once
// and reports absolute host wall-clock metrics; regressions are judged
// against archived history (sthist -gate), and simulated bit-identity is
// guarded separately by the committed BENCH baselines and the golden
// digest test.
//
// Simulated packages may not read host clocks (the simclock analyzer
// enforces it), so the wall clock arrives by injection: the hosting CLI
// installs HostClock before invoking the experiment.

import "fmt"

// HostClock, when non-nil, returns monotonic host time in nanoseconds.
// It is injected by host-side front-ends (cmd/stbench); simulation code
// never reads it, so installing it cannot change simulated results. E17
// refuses to run without it.
var HostClock func() int64

// hostSelftestSchemes is the Figure 1 list sweep's scheme set — E17
// measures exactly the E1a workload.
var hostSelftestSchemes = []string{
	SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack, SchemeDTA,
}

// HostSelftest regenerates E17: the list sweep timed on the host. The
// emitted point is an aggregate — Ops carries total scheduling decisions,
// Throughput carries host decisions ("blocks") per second so the standard
// throughput gate watches host speed — with the detailed rates in
// derived.host_*.
func HostSelftest(o Options) (*Table, error) {
	if HostClock == nil {
		return nil, fmt.Errorf("bench: E17 measures host wall-clock and needs an injected clock; run it through stbench")
	}
	o = o.WithDefaults()

	var blocks uint64
	so := o
	so.Collect = func(_ string, _ int, res *Result) { blocks += res.Decisions }
	start := HostClock()
	if _, err := throughputSweep(StructList, hostSelftestSchemes, so); err != nil {
		return nil, err
	}
	ns := HostClock() - start
	if ns <= 0 {
		ns = 1 // a broken injected clock must not divide by zero
	}
	o.progress("host-selftest: %d decisions in %.0f ms", blocks, float64(ns)/1e6)

	bps := float64(blocks) * 1e9 / float64(ns)
	nspb := float64(ns) / float64(blocks)
	o.collect("list", 0, &Result{
		Ops:        blocks,
		Throughput: bps,
		HostDerived: map[string]float64{
			"host_ms":             float64(ns) / 1e6,
			"host_blocks_per_sec": bps,
			"host_ns_per_block":   nspb,
		},
	})
	tb := &Table{
		Title: "E17 — Host throughput selftest (list sweep)",
		Cols:  []string{"sweep", "host_ms", "blocks", "blocks_per_sec", "ns_per_block"},
	}
	tb.AddRow("list", f0(float64(ns)/1e6), fmt.Sprintf("%d", blocks), f0(bps), fmt.Sprintf("%.1f", nspb))
	return tb, nil
}
