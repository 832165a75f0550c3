package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"stacktrack/internal/mem"
	"stacktrack/internal/sched"
)

// TestSweepWidthInvariant: every registered experiment delivers the same
// points and prints the same table whether its points run one at a time
// or three at a time. Two thread counts give every experiment a point
// count that three does not divide for most of them, so the last wave is
// partial.
func TestSweepWidthInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	run := func(e *Experiment, workers int) (doc, table, progress []byte) {
		var prog bytes.Buffer
		o := Options{Threads: []int{1, 2}, MeasureMs: 0.2, WarmupMs: 0.05, Progress: &prog, workers: workers}
		d, tb, err := RunExperimentJSON(e, o)
		if err != nil {
			t.Fatalf("%s at width %d: %v", e.ID, workers, err)
		}
		js, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tb.Fprint(&sb)
		return js, []byte(sb.String()), prog.Bytes()
	}
	for i := range Experiments {
		e := &Experiments[i]
		t.Run(e.ID, func(t *testing.T) {
			d1, t1, p1 := run(e, 1)
			d3, t3, p3 := run(e, 3)
			if !bytes.Equal(d1, d3) {
				t.Errorf("ExperimentJSON differs between widths 1 and 3:\n%s\n%s", d1, d3)
			}
			if !bytes.Equal(t1, t3) {
				t.Errorf("table differs between widths 1 and 3:\n%s\n%s", t1, t3)
			}
			if !bytes.Equal(p1, p3) {
				t.Errorf("progress differs between widths 1 and 3:\n%s\n%s", p1, p3)
			}
		})
	}
}

// panicPolicy panics at a point's first scheduling decision.
type panicPolicy struct{}

type pointPanic struct{ msg string }

func (panicPolicy) Pick(*sched.Scheduler, []int) int   { panic(pointPanic{"boom"}) }
func (panicPolicy) Preempt(*sched.Scheduler, int) bool { return false }

// TestRunPointsPanic: a point that panics on a worker goroutine has its
// panic re-raised on the caller's goroutine with the same value, after
// the points before it were delivered and before any after it. A panic
// left on the worker would crash the process instead of reaching this
// recover.
func TestRunPointsPanic(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := tinyConfig()
		bad := cfg
		bad.Policy = panicPolicy{}
		var got []string
		o := Options{workers: workers,
			Collect: func(series string, _ int, _ *Result) { got = append(got, series) }}
		pts := []sweepPoint{
			{series: "a", threads: cfg.Threads, cfg: cfg},
			{series: "b", threads: cfg.Threads, cfg: bad},
			{series: "c", threads: cfg.Threads, cfg: cfg},
		}
		v := func() (v any) {
			defer func() { v = recover() }()
			_, _ = o.runPoints(pts, func(sweepPoint, *Result) string { return "" })
			return nil
		}()
		if v != (pointPanic{"boom"}) {
			t.Fatalf("width %d: recovered %v, want the point's own panic value", workers, v)
		}
		if len(got) != 1 || got[0] != "a" {
			t.Fatalf("width %d: delivered %v before the panic, want [a]", workers, got)
		}
	}
}

// countingPolicy picks as the scheduler's own rule does (explore.VTime)
// and counts every Pick in picks. When started is non-nil it also counts,
// once, that its point made a first decision.
type countingPolicy struct {
	picks, started *atomic.Int64
	seen           bool
}

func (p *countingPolicy) Pick(s *sched.Scheduler, cands []int) int {
	p.picks.Add(1)
	if !p.seen && p.started != nil {
		p.seen = true
		p.started.Add(1)
	}
	return s.DefaultPick(cands)
}

func (p *countingPolicy) Preempt(s *sched.Scheduler, ctx int) bool { return s.DefaultPreempt(ctx) }

// countedPoints returns n copies of tinyConfig, each with its own
// countingPolicy over the shared counters.
func countedPoints(n int, picks, started *atomic.Int64) []sweepPoint {
	pts := make([]sweepPoint, n)
	for i := range pts {
		cfg := tinyConfig()
		cfg.Policy = &countingPolicy{picks: picks, started: started}
		pts[i] = sweepPoint{series: string(rune('a' + i)), threads: cfg.Threads, cfg: cfg}
	}
	return pts
}

func noLine(sweepPoint, *Result) string { return "" }

// busy occupies the calling goroutine with a run of its own, as the
// host-speed benchmark's speed reference occupies Collect: long enough
// that any point simulating meanwhile makes decisions.
func busy(t *testing.T) {
	t.Helper()
	if _, err := Run(tinyConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestRunPointsCollectParksWorkers: no point makes a scheduling decision
// while Collect runs. Collect reads the decision counter of every point,
// keeps busy, and reads it again; with more points than workers, later
// points are simulating whenever an early group is delivered, so a
// delivery that did not park them would see the counter move.
func TestRunPointsCollectParksWorkers(t *testing.T) {
	for _, workers := range []int{2, 3} {
		var picks atomic.Int64
		delivered := 0
		o := Options{workers: workers, Collect: func(series string, _ int, _ *Result) {
			delivered++
			before := picks.Load()
			busy(t)
			if after := picks.Load(); after != before {
				t.Errorf("width %d: point %s: %d decisions were made while Collect ran", workers, series, after-before)
			}
		}}
		pts := countedPoints(2*workers+1, &picks, nil)
		if _, err := o.runPoints(pts, noLine); err != nil {
			t.Fatalf("width %d: %v", workers, err)
		}
		if delivered != len(pts) {
			t.Fatalf("width %d: delivered %d of %d points", workers, delivered, len(pts))
		}
	}
}

// holdPolicy is a countingPolicy that makes no decision before the
// counter until reaches n.
type holdPolicy struct {
	countingPolicy
	until *atomic.Int64
	n     int64
}

func (p *holdPolicy) Pick(s *sched.Scheduler, cands []int) int {
	for p.until.Load() < p.n {
		runtime.Gosched()
	}
	return p.countingPolicy.Pick(s, cands)
}

// TestRunPointsDeliversFinishedPointsTogether: the points that have
// finished when a group is delivered go with it, under one parking of
// the workers. Point 0 holds its worker until the other worker has run
// points 1-5 and started the long point 6; points 0-5 must then reach
// Collect with no decision between them, while point 6 is simulating.
func TestRunPointsDeliversFinishedPointsTogether(t *testing.T) {
	var picks, started atomic.Int64
	pts := countedPoints(8, &picks, &started)
	pts[0].cfg.Policy = &holdPolicy{countingPolicy: countingPolicy{picks: &picks}, until: &started, n: 6}
	pts[6].cfg.MeasureCycles = 10 * tinyConfig().MeasureCycles
	var seen []int64
	o := Options{workers: 2, Collect: func(string, int, *Result) { seen = append(seen, picks.Load()) }}
	if _, err := o.runPoints(pts, noLine); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if seen[i] != seen[0] {
			t.Fatalf("%d decisions were made between delivering point 0 and point %d", seen[i]-seen[0], i)
		}
	}
}

// stopped fails t unless runPoints left nothing running: no point makes
// a decision after it returned, and the goroutine count falls back to n
// (a worker that has signalled its WaitGroup may take a few yields to
// exit).
func stopped(t *testing.T, picks *atomic.Int64, n int) {
	t.Helper()
	before := picks.Load()
	busy(t)
	if after := picks.Load(); after != before {
		t.Fatalf("%d decisions were made after runPoints returned", after-before)
	}
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i == 100000 {
			t.Fatalf("%d goroutines left running", runtime.NumGoroutine()-n)
		}
		runtime.Gosched()
	}
}

// TestRunPointsStops: however runPoints returns — a point's error, a
// cancellation from Collect, a point's panic — it leaves no worker
// running, and once a point has failed no worker goes on through the
// rest of the sweep.
func TestRunPointsStops(t *testing.T) {
	const width = 2
	tooMany := func(pts []sweepPoint, i int) {
		pts[i].cfg.Threads = mem.MaxThreads + 1 // NewSession refuses it
	}
	t.Run("point-0-fails", func(t *testing.T) {
		var picks, started atomic.Int64
		pts := countedPoints(6, &picks, &started)
		tooMany(pts, 0)
		before := runtime.NumGoroutine()
		_, err := Options{workers: width}.runPoints(pts, noLine)
		if err == nil {
			t.Fatal("the failing point's error was not returned")
		}
		stopped(t, &picks, before)
		if n := started.Load(); n > width {
			t.Fatalf("%d further points started after point 0 failed, want at most %d", n, width)
		}
	})
	t.Run("point-1-fails-while-0-runs", func(t *testing.T) {
		// Point 0 runs five times longer than the rest: a worker that kept
		// going after point 1 failed would start most of them meanwhile.
		var picks, started atomic.Int64
		pts := countedPoints(8, &picks, &started)
		pts[0].cfg.MeasureCycles = 5 * tinyConfig().MeasureCycles
		pts[0].cfg.Policy = &countingPolicy{picks: &picks}
		tooMany(pts, 1)
		var got []string
		o := Options{workers: width, Collect: func(series string, _ int, _ *Result) { got = append(got, series) }}
		before := runtime.NumGoroutine()
		_, err := o.runPoints(pts, noLine)
		if err == nil || len(got) != 1 || got[0] != "a" {
			t.Fatalf("err = %v after delivering %v; want point 1's error after point 0 alone", err, got)
		}
		stopped(t, &picks, before)
		if n := started.Load(); n > width {
			t.Fatalf("%d points after point 1 started, want at most %d", n, width)
		}
	})
	t.Run("cancelled-from-collect", func(t *testing.T) {
		var picks atomic.Int64
		pts := countedPoints(6, &picks, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := Options{workers: width, Ctx: ctx, Collect: func(string, int, *Result) { cancel() }}
		before := runtime.NumGoroutine()
		if _, err := o.runPoints(pts, noLine); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		stopped(t, &picks, before)
	})
	t.Run("point-panics", func(t *testing.T) {
		var picks atomic.Int64
		pts := countedPoints(6, &picks, nil)
		pts[1].cfg.Policy = panicPolicy{}
		before := runtime.NumGoroutine()
		v := func() (v any) {
			defer func() { v = recover() }()
			_, _ = Options{workers: width}.runPoints(pts, noLine)
			return nil
		}()
		if v != (pointPanic{"boom"}) {
			t.Fatalf("recovered %v, want the point's own panic value", v)
		}
		stopped(t, &picks, before)
	})
}
