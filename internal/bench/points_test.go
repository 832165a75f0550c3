package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

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
