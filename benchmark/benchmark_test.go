package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
)

// tinyWorkload is w shrunk to its set-up pass: every call of the
// workload, with windows of a few virtual cycles.
func tinyWorkload(w workload) *workload {
	pass := w.pass
	w.pass = func(ctx context.Context, seed uint64, _ bool, rec *recorder) error {
		return pass(ctx, seed, true, rec)
	}
	return &w
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestShrunkWorkloadsEndToEnd measures every workload, shrunk, as an
// untraced run: it must pass its checks and report exactly the
// end-to-end metrics of BENCHMARK.json, none of them zero.
func TestShrunkWorkloadsEndToEnd(t *testing.T) {
	sp := testSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rec, err := measure(context.Background(), tinyWorkload(w), 1, 0.01, false, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("correct=%v, %d of %d runs failed", rec.Correct, rec.Failed, rec.Attempted)
			}
			if _, err := withUnits(sp.EndToEnd, rec.raw); err != nil {
				t.Fatal(err)
			}
			for k, v := range rec.raw {
				if !(v > 0) {
					t.Errorf("%s = %v, want a positive value", k, v)
				}
			}
		})
	}
}

// TestTracedRun runs the traced variant of a shrunk workload: its
// metrics are exactly BENCHMARK.json's per-layer metrics, the traced and
// untraced passes simulate the same bits, and the spans nest workload →
// experiment → run.
func TestTracedRun(t *testing.T) {
	t.Parallel()
	sp := testSpec(t)
	dir := t.TempDir()
	w := tinyWorkload(*findWorkload("plain-oversub"))
	rec, err := measure(context.Background(), w, 1, 1, true, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("%d of %d runs failed", rec.Failed, rec.Attempted)
	}
	if _, err := withUnits(sp.PerLayer, rec.raw); err != nil {
		t.Fatal(err)
	}
	if rec.raw["core.scans"] != 0 || rec.raw["sched.decisions"] == 0 {
		t.Errorf("plain-oversub counts: core.scans=%v sched.decisions=%v", rec.raw["core.scans"], rec.raw["sched.decisions"])
	}
	b, err := os.ReadFile(filepath.Join(dir, "spans-plain-oversub.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, e := range spans.TraceEvents {
		cats[e.Cat]++
	}
	if cats["workload"] != 1 || cats["experiment"] == 0 || cats["run"] < cats["experiment"] {
		t.Errorf("span categories %v", cats)
	}
}

func tinyPasses(t *testing.T, w *workload, seed uint64, n int) []pass {
	t.Helper()
	var out []pass
	for i := 0; i < n; i++ {
		p, err := runPass(context.Background(), w, seed, true, probes{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func failures(t *testing.T, w *workload, seed uint64, passes []pass) int {
	t.Helper()
	if err := verify(w, seed, passes); err != nil {
		t.Fatal(err)
	}
	_, failed := tally(passes, nil, io.Discard)
	return failed
}

// TestTamperedDigestFails: a run whose digest differs from the first
// pass, or from golden.json at seed 0, is a failed run.
func TestTamperedDigestFails(t *testing.T) {
	w := tinyWorkload(*findWorkload("fuzz-campaign"))
	passes := tinyPasses(t, w, 1, 2)
	if n := failures(t, w, 1, passes); n != 0 {
		t.Fatalf("%d failures in identical passes", n)
	}
	passes[1].rec.units[3].digest = "tampered"
	if n := failures(t, w, 1, passes); n != 1 {
		t.Fatalf("%d failures after tampering with one digest, want 1", n)
	}

	saved := goldenJSON
	t.Cleanup(func() { goldenJSON = saved })
	passes = tinyPasses(t, w, 0, 1)
	var digests []string
	for _, u := range passes[0].rec.units {
		digests = append(digests, u.digest)
	}
	golden := map[string][]string{w.name: digests}
	goldenJSON, _ = json.Marshal(golden)
	if n := failures(t, w, 0, passes); n != 0 {
		t.Fatalf("%d failures against a matching golden", n)
	}
	digests[7] = "tampered"
	goldenJSON, _ = json.Marshal(golden)
	if n := failures(t, w, 0, passes); n != 1 {
		t.Fatalf("%d failures against a golden with one tampered digest, want 1", n)
	}
}

// TestTamperedCounterFails: a run whose insert/delete ledger does not
// add up to its final size is a failed run.
func TestTamperedCounterFails(t *testing.T) {
	res, err := bench.Run(bench.Config{Structure: bench.StructList, Threads: 2, WarmupCycles: tinyCycles, MeasureCycles: cost.FromSeconds(1e-5)})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(probes{})
	rec.unit("clean", res.Decisions, res, checkConservation(res))
	res.TotalInserts++
	rec.unit("tampered", res.Decisions, res, checkConservation(res))
	attempted, failed := tally([]pass{{rec: rec}}, nil, io.Discard)
	if attempted != 2 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", attempted, failed)
	}
}

// TestBaselineByteCompare: the committed BENCH documents round-trip
// byte for byte, and a changed counter breaks the comparison.
func TestBaselineByteCompare(t *testing.T) {
	doc, err := bench.ReadResultsJSON("../BENCH_E3.json")
	if err != nil {
		t.Fatal(err)
	}
	x := doc.Experiments[0]
	if err := matchBaseline("..", x); err != nil {
		t.Fatal(err)
	}
	x.Points[0].Metrics.Counters["core.segments"]++
	if err := matchBaseline("..", x); err == nil {
		t.Fatal("a changed counter still matched BENCH_E3.json")
	}
}

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tbl, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	wantLayer := map[string]time.Duration{
		"sched.loop": 40 * ms, "ds": 20 * ms, "runtime": 10 * ms,
		"mem": 30 * ms, "sched.thread": 10 * ms, "bench": 10 * ms,
	}
	for l, d := range wantLayer {
		if tbl.layer[l] != d {
			t.Errorf("layer %s = %v, want %v", l, tbl.layer[l], d)
		}
	}
	wantPhase := map[string]time.Duration{"setup": 10 * ms, "simulate": 80 * ms, "drain": 30 * ms}
	for ph, d := range wantPhase {
		if tbl.phase[ph] != d {
			t.Errorf("phase %s = %v, want %v", ph, tbl.phase[ph], d)
		}
	}
	if tbl.total != 120*ms || tbl.samples(tbl.total) != 12 {
		t.Errorf("total %v (%v samples), want 120ms (12)", tbl.total, tbl.samples(tbl.total))
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"stacktrack/internal/sched.(*Scheduler).Run":         "sched.loop",
		"stacktrack/internal/sched.(*Thread).Charge":         "sched.thread",
		"stacktrack/internal/ds.emitListSearch.func2":        "ds",
		"stacktrack/internal/prog/dataflow.Analyze":          "prog",
		"stacktrack/internal/snap.Encode":                    "other",
		"runtime.memmove":                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "runtime",
		"encoding/json.(*encodeState).marshal":               "other",
		"main.runPass":                                       "other",
		"stacktrack/internal/explore.(*Recording).Pick":      "explore",
		"stacktrack/internal/core.(*StackTrack).scanAndFree": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestQuantileMatchesPython pins the quantiles to Python's
// statistics.quantiles (method "exclusive").
func TestQuantileMatchesPython(t *testing.T) {
	one2ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		i, n int
		want float64
	}{
		{one2ten, 1, 4, 2.75}, {one2ten, 2, 4, 5.5}, {one2ten, 3, 4, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1, 4, 1.5}, {[]float64{1, 2, 3, 4, 5}, 3, 4, 4.5},
		{hundred, 9, 10, 90.9}, {[]float64{3, 1}, 1, 4, 0.5},
	} {
		if got := quantile(c.xs, c.i, c.n); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %d, %d) = %v, want %v", c.xs, c.i, c.n, got, c.want)
		}
	}
}

func writeRecords(t *testing.T, path string, rs []record) {
	t.Helper()
	for i := range rs {
		if err := appendRecord(path, &rs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// runsOf builds five untraced records of one workload whose metrics are
// base scaled by 1 + the given jitter.
func runsOf(sp *spec, scale float64, digest string) []record {
	var out []record
	for i, jitter := range []float64{0, 0.004, -0.003, 0.002, -0.001} {
		m := map[string]metricValue{}
		for _, s := range sp.EndToEnd {
			m[s.Name] = metricValue{Value: 10 * scale * (1 + jitter), Unit: s.Unit}
		}
		out = append(out, record{
			Workload: "tx-scan", Seed: uint64(i + 1),
			result: result{Correct: true, Attempted: 1, Metrics: m},
			Counts: map[string]float64{"sched.decisions": 42}, Digest: digest,
		})
	}
	return out
}

func TestCompare(t *testing.T) {
	sp := testSpec(t)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	writeRecords(t, a, runsOf(sp, 1, "d"))
	for _, c := range []struct {
		name      string
		b         []record
		wantWorse bool
	}{
		{"same", runsOf(sp, 1.001, "d"), false},
		{"slower", runsOf(sp, 1.3, "d"), true}, // every metric 30% higher: worse where lower is better
		{"digest", runsOf(sp, 1, "other"), true},
	} {
		b := filepath.Join(dir, c.name+".jsonl")
		writeRecords(t, b, c.b)
		worse, err := compareFiles(io.Discard, sp, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse=%v, want %v", c.name, worse, c.wantWorse)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.02, 9.95, 10.1, 10, 9.98}, "same"},
		{[]float64{10, 10.1, 9.9, 10, 10.05}, []float64{12, 12.1, 11.9, 12, 12.05}, "worse"},
		{[]float64{10, 10.1, 9.9, 10, 10.05}, []float64{8, 8.1, 7.9, 8, 8.05}, "better"},
		{[]float64{10, 14, 7, 10, 12}, []float64{10.5, 13, 8, 9, 12}, "unresolved"},
	} {
		if got, _, _ := verdict(s, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
