package bench

// Edge cases of the regression gate and its baseline loading, plus the
// cancellation seam stbench's SIGINT path builds on.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/metrics"
)

// tinyConfig keeps single-run tests fast (0.5ms virtual measurement).
func tinyConfig() Config {
	return Config{
		Structure: "list", Scheme: "epoch", Threads: 4,
		WarmupCycles:  cost.FromSeconds(0.0002),
		MeasureCycles: cost.FromSeconds(0.0005),
	}
}

func point(series string, threads int, tweak func(*PointJSON)) PointJSON {
	p := PointJSON{
		Series: series, Threads: threads,
		Ops: 1000, Throughput: 50000,
		Metrics: metrics.Snapshot{Counters: map[string]uint64{"core.ops_fast": 1000}},
	}
	if tweak != nil {
		tweak(&p)
	}
	return p
}

func expDoc(points ...PointJSON) *ExperimentJSON {
	return &ExperimentJSON{Schema: SchemaVersion, Name: "x", ID: "EX", Points: points}
}

// TestCompareZeroValuedBaseline: a counter that is zero in the baseline
// and nonzero now (or vice versa) is a full-scale (100%) relative
// difference, never a divide-by-zero or a silent pass; zero on both
// sides compares clean; and the comparison is exact, so even a one-ulp
// throughput drift is reported.
func TestCompareZeroValuedBaseline(t *testing.T) {
	base := expDoc(point("a", 2, func(p *PointJSON) {
		p.Metrics.Counters["mem.aborts"] = 0
	}))
	cur := expDoc(point("a", 2, func(p *PointJSON) {
		p.Metrics.Counters["mem.aborts"] = 7
	}))
	regs := CompareExperiments(base, cur)
	if len(regs) != 1 || regs[0].Field != "mem.aborts" {
		t.Fatalf("regs = %v", regs)
	}
	if regs[0].RelDiff != 1 {
		t.Fatalf("zero→nonzero rel diff = %g, want 1", regs[0].RelDiff)
	}

	// The other direction too: a counter the baseline has and the
	// current run lacks entirely (sortedKeys merges both key sets).
	drop := expDoc(point("a", 2, nil))
	delete(drop.Points[0].Metrics.Counters, "core.ops_fast")
	if regs := CompareExperiments(expDoc(point("a", 2, nil)), drop); len(regs) != 1 {
		t.Fatalf("dropped counter not flagged: %v", regs)
	}

	// All-zero baseline and current: clean, not NaN.
	zero := expDoc(point("a", 2, func(p *PointJSON) {
		p.Ops, p.Throughput = 0, 0
		p.Metrics.Counters = map[string]uint64{}
	}))
	zero2 := expDoc(point("a", 2, func(p *PointJSON) {
		p.Ops, p.Throughput = 0, 0
		p.Metrics.Counters = map[string]uint64{}
	}))
	if regs := CompareExperiments(zero, zero2); len(regs) != 0 {
		t.Fatalf("all-zero baseline reported regressions: %v", regs)
	}

	// One ulp of throughput drift: no tolerance absorbs it.
	ulp := expDoc(point("a", 2, func(p *PointJSON) {
		p.Throughput = math.Nextafter(p.Throughput, math.Inf(1))
	}))
	regs = CompareExperiments(expDoc(point("a", 2, nil)), ulp)
	if len(regs) != 1 || regs[0].Field != "throughput" {
		t.Fatalf("one-ulp throughput drift: regs = %v", regs)
	}
	if d := regs[0].RelDiff; d <= 0 || d > 1e-15 {
		t.Fatalf("one-ulp rel diff = %g, want a tiny positive value", d)
	}
}

// TestLoadBaselineErrors: a missing baseline file surfaces as
// fs.ErrNotExist; a present file that lacks the experiment is its own,
// distinguishable error.
func TestLoadBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	e := FindExperiment("E1a")

	if _, err := LoadBaseline(dir, e); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}

	// Write a valid results file under E1a's conventional name that
	// holds some other experiment.
	other := &ExperimentJSON{Schema: SchemaVersion, Name: "someone-else", ID: "E9z"}
	if err := WriteResultsJSON(BaselineFile(dir, e),
		&ResultsJSON{Schema: SchemaVersion, Experiments: []*ExperimentJSON{other}}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBaseline(dir, e)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("wrong-experiment baseline: err = %v", err)
	}
	if !strings.Contains(err.Error(), "no results for experiment") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// And the happy path through the same file once the entry exists.
	good := &ExperimentJSON{Schema: SchemaVersion, Name: e.Name, ID: e.ID}
	if err := WriteResultsJSON(BaselineFile(dir, e),
		&ResultsJSON{Schema: SchemaVersion, Experiments: []*ExperimentJSON{good}}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(dir, e)
	if err != nil || got.ID != e.ID {
		t.Fatalf("LoadBaseline = %v, %v", got, err)
	}
	if filepath.Base(BaselineFile(dir, e)) != "BENCH_E1a.json" {
		t.Fatalf("baseline filename drifted: %s", BaselineFile(dir, e))
	}
}

// TestSuggestExperiments: near-misses are suggested, exact matches are
// not (they resolve), and garbage suggests nothing.
func TestSuggestExperiments(t *testing.T) {
	sug := SuggestExperiments("figure1")
	if len(sug) == 0 {
		t.Fatal("no suggestions for \"figure1\"")
	}
	for _, e := range sug {
		if !strings.HasPrefix(e.Name, "figure1") {
			t.Fatalf("unrelated suggestion %s", e.Name)
		}
	}
	if got := SuggestExperiments("E1a"); len(got) != 0 {
		// E1a resolves exactly; suggesting it back would be noise.
		for _, e := range got {
			if e.ID == "E1a" {
				t.Fatal("exact match offered as a suggestion")
			}
		}
	}
	if got := SuggestExperiments("zzzzz"); len(got) != 0 {
		t.Fatalf("garbage query suggested %v", got)
	}
	if len(ExperimentInventory()) != len(Experiments) {
		t.Fatal("inventory does not cover every experiment")
	}
}

// countingCtx is a live context (Done is non-nil, so RunContext takes
// its pausing Session path) that counts Err polls and reports
// context.Canceled from the cancelAt-th poll on; cancelAt 0 never
// cancels.
type countingCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

func liveCtx(t *testing.T, cancelAt int) *countingCtx {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &countingCtx{Context: ctx, cancelAt: cancelAt}
}

// TestRunContextCancels: RunContext polls its context at decision
// boundaries — a pre-cancelled run never starts, a run cancelled at a
// later poll stops there with the context's error, a live context that
// never fires changes no exported bit, and a sweep cancelled from its
// first point's collector keeps that point and runs no other.
func TestRunContextCancels(t *testing.T) {
	cfg := tinyConfig()

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("live-bit-identical", func(t *testing.T) {
		ctx := liveCtx(t, 0)
		a, err := RunContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Decisions <= cancelGrain {
			t.Fatalf("run made %d decisions; it must cross a %d-decision poll boundary", a.Decisions, cancelGrain)
		}
		if ctx.polls < 2 {
			t.Fatalf("context polled %d times; the run never paused at a poll boundary", ctx.polls)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ja, err := json.Marshal(pointJSON("x", cfg.Threads, a))
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(pointJSON("x", cfg.Threads, b))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("RunContext point differs from Run:\n%s\n%s", ja, jb)
		}
	})

	t.Run("live-profiled-traced", func(t *testing.T) {
		// The profiler and tracer keep state outside any snapshot, but a
		// run that only pauses to poll loses none of it.
		for _, ring := range []bool{false, true} {
			pcfg := cfg
			pcfg.Profile, pcfg.TraceEvents, pcfg.RingTrace = true, 300, ring
			ctx := liveCtx(t, 0)
			a, err := RunContext(ctx, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if ctx.polls < 2 {
				t.Fatalf("ring=%v: context polled %d times; the run never paused at a poll boundary", ring, ctx.polls)
			}
			b, err := Run(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			ja, err := json.Marshal(pointJSON("x", pcfg.Threads, a))
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(pointJSON("x", pcfg.Threads, b))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("ring=%v: RunContext point differs from Run:\n%s\n%s", ring, ja, jb)
			}
			if a.Folded == "" || a.Folded != b.Folded {
				t.Fatalf("ring=%v: folded stacks differ from Run (or are empty)", ring)
			}
			var ta, tb bytes.Buffer
			if err := a.Trace.Dump(&ta); err != nil {
				t.Fatal(err)
			}
			if err := b.Trace.Dump(&tb); err != nil {
				t.Fatal(err)
			}
			if ta.Len() == 0 || !bytes.Equal(ta.Bytes(), tb.Bytes()) {
				t.Fatalf("ring=%v: trace dump differs from Run (or is empty)", ring)
			}
		}
	})

	t.Run("cancelled-mid-run", func(t *testing.T) {
		// Poll 1 is the up-front check, poll 2 the first pause: the
		// context fires at the second pause, well inside the run.
		ctx := liveCtx(t, 3)
		res, err := RunContext(ctx, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("got a result: %v, err = %v; want none, context.Canceled", res != nil, err)
		}
		if ctx.polls != 3 {
			t.Fatalf("stopped after %d polls, want 3", ctx.polls)
		}
	})

	t.Run("sweep-cancelled-from-collect", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		collected := 0
		o := Options{Threads: []int{1, 2}, MeasureMs: 0.3, WarmupMs: 0.1, Ctx: ctx,
			Collect: func(string, int, *Result) { collected++; cancel() }}
		doc, _, err := RunExperimentJSON(FindExperiment("E3"), o)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if collected != 1 || doc == nil || len(doc.Points) != 1 || doc.Points[0].Threads != 1 {
			t.Fatalf("collected %d points, want only the 1-thread point (partial doc: %v)", collected, doc != nil)
		}
	})
}
