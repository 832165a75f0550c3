package bench

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// tinyJSONOptions keeps the JSON round-trip tests fast.
func tinyJSONOptions() Options {
	return Options{Threads: []int{2}, MeasureMs: 0.5, WarmupMs: 0.1}
}

// TestJSONDeterministic: the simulator is deterministic and map keys are
// sorted by encoding/json, so two same-seed exports are byte-identical.
func TestJSONDeterministic(t *testing.T) {
	e := FindExperiment("E1a")
	if e == nil {
		t.Fatal("E1a not registered")
	}
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		doc, _, err := RunExperimentJSON(e, tinyJSONOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("same-seed JSON exports differ")
	}
}

// TestFindExperiment: lookup by name, ID, and alias, case-insensitively.
func TestFindExperiment(t *testing.T) {
	for _, name := range []string{"figure1-list", "E1a", "e1a", "fig1-list", "FIG1-LIST"} {
		e := FindExperiment(name)
		if e == nil || e.Name != "figure1-list" {
			t.Fatalf("FindExperiment(%q) = %v", name, e)
		}
	}
	if FindExperiment("nope") != nil {
		t.Fatal("bogus name resolved")
	}
}

// TestCompareDetectsPerturbation: a different seed perturbs counters, which
// the exact comparison reports; the same seed compares clean.
func TestCompareDetectsPerturbation(t *testing.T) {
	e := FindExperiment("E1a")
	base, _, err := RunExperimentJSON(e, tinyJSONOptions())
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := RunExperimentJSON(e, tinyJSONOptions())
	if err != nil {
		t.Fatal(err)
	}
	if regs := CompareExperiments(base, same); len(regs) != 0 {
		t.Fatalf("same-seed run reported regressions: %v", regs)
	}

	o := tinyJSONOptions()
	o.Seed = 99
	perturbed, _, err := RunExperimentJSON(e, o)
	if err != nil {
		t.Fatal(err)
	}
	if regs := CompareExperiments(base, perturbed); len(regs) == 0 {
		t.Fatal("perturbed run compared clean against the baseline")
	}
}

// TestCompareFlagsMissingPoints: points present on only one side are
// regressions in both directions.
func TestCompareFlagsMissingPoints(t *testing.T) {
	mk := func(series string) *ExperimentJSON {
		return &ExperimentJSON{
			Schema: SchemaVersion, Name: "x",
			Points: []PointJSON{{Series: series, Threads: 2}},
		}
	}
	regs := CompareExperiments(mk("a"), mk("b"))
	if len(regs) != 2 {
		t.Fatalf("want 2 missing-point regressions, got %v", regs)
	}
}

// TestResultsJSONRoundTrip: write, read back, schema-check.
func TestResultsJSONRoundTrip(t *testing.T) {
	e := FindExperiment("E3")
	doc, _, err := RunExperimentJSON(e, tinyJSONOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_E3.json")
	if err := WriteResultsJSON(path, &ResultsJSON{Schema: SchemaVersion, Experiments: []*ExperimentJSON{doc}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultsJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].Name != "figure3-aborts" {
		t.Fatalf("round trip lost the experiment: %+v", got)
	}
	if regs := CompareExperiments(doc, got.Experiments[0]); len(regs) != 0 {
		t.Fatalf("round trip changed values: %v", regs)
	}
}

// TestProfilingDoesNotChangeResults: the profiler reads virtual-time deltas
// but never charges cycles, so enabling it must not move any simulated
// quantity.
func TestProfilingDoesNotChangeResults(t *testing.T) {
	cfg := Config{
		Structure:     StructList,
		Scheme:        SchemeStackTrack,
		Threads:       3,
		MeasureCycles: 2_000_000,
		WarmupCycles:  200_000,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = true
	profiled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ops != profiled.Ops || plain.Mem != profiled.Mem || plain.Core.Segments != profiled.Core.Segments {
		t.Fatalf("profiling changed simulated results: ops %d vs %d, segments %d vs %d",
			plain.Ops, profiled.Ops, plain.Core.Segments, profiled.Core.Segments)
	}
	if regs := CompareExperiments(
		&ExperimentJSON{Points: []PointJSON{{Series: "s", Threads: 3, Ops: plain.Ops, Metrics: plain.Metrics}}},
		&ExperimentJSON{Points: []PointJSON{{Series: "s", Threads: 3, Ops: profiled.Ops, Metrics: profiled.Metrics}}}); len(regs) != 0 {
		t.Fatalf("profiling moved counters: %v", regs)
	}
	if profiled.Profile == nil || profiled.Profile.TotalCycles == 0 {
		t.Fatal("profiled run produced no profile")
	}
	if profiled.Folded == "" {
		t.Fatal("profiled run produced no folded stacks")
	}
}

// TestFigure3HasExplicitColumn: all four abort classes appear in the
// Figure 3 reporter.
func TestFigure3HasExplicitColumn(t *testing.T) {
	tb, err := Figure3Aborts(tinyJSONOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"threads", "contention", "capacity", "preempt", "explicit", "aborts/1Ksegments"}
	if len(tb.Cols) != len(want) {
		t.Fatalf("cols %v, want %v", tb.Cols, want)
	}
	for i, c := range want {
		if tb.Cols[i] != c {
			t.Fatalf("cols %v, want %v", tb.Cols, want)
		}
	}
}
