package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// tinyOptions keeps registry smoke tests fast.
func tinyOptions() Options {
	return Options{Threads: []int{2}, MeasureMs: 0.5, WarmupMs: 0.1}
}

// TestEveryExperimentProducesATable runs every registered experiment with a
// tiny sweep: the registry is the CLI's contract, so each entry must
// execute and emit a plausible table.
func TestEveryExperimentProducesATable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range Experiments {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opts := tinyOptions()
			if e.Name == "extension-crash" {
				opts.Threads = []int{3}
				opts.MeasureMs = 2
			}
			tb, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if tb.Title == "" || len(tb.Cols) < 2 || len(tb.Rows) == 0 {
				t.Fatalf("degenerate table: %+v", tb)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Cols) {
					t.Fatalf("ragged row %v for columns %v", row, tb.Cols)
				}
			}
			var sb strings.Builder
			tb.Fprint(&sb)
			if !strings.Contains(sb.String(), tb.Cols[len(tb.Cols)-1]) {
				t.Fatal("printed table missing a column header")
			}
		})
	}
}

// TestExperimentsOwnTheirThreadAxes: E9 needs a survivor and a victim,
// so it skips single-thread points; E10 sweeps BigMachineThreads
// whatever Options.Threads says. Both are observed through Collect, and
// E10 is cancelled from its first point so the check stays cheap.
func TestExperimentsOwnTheirThreadAxes(t *testing.T) {
	t.Run("E9", func(t *testing.T) {
		var got []int
		o := Options{Threads: []int{1, 2}, MeasureMs: 0.3, WarmupMs: 0.1,
			Collect: func(_ string, n int, _ *Result) { got = append(got, n) }}
		if _, err := FindExperiment("E9").Run(o); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("E9 collected no points")
		}
		for _, n := range got {
			if n != 2 {
				t.Fatalf("E9 collected a %d-thread point; want only 2-thread points (got %v)", n, got)
			}
		}
	})

	t.Run("E10", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var got []int
		o := Options{Threads: []int{3}, MeasureMs: 0.3, WarmupMs: 0.1, Ctx: ctx,
			Collect: func(_ string, n int, _ *Result) { got = append(got, n); cancel() }}
		if _, err := FindExperiment("E10").Run(o); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(got) != 1 || got[0] != BigMachineThreads[0] {
			t.Fatalf("E10 collected %v; want one point at %d threads", got, BigMachineThreads[0])
		}
	})
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if len(o.Threads) != 16 || o.Threads[15] != 16 {
		t.Fatalf("default thread sweep wrong: %v", o.Threads)
	}
	if o.MeasureMs <= 0 || o.WarmupMs <= 0 || o.Seed == 0 {
		t.Fatal("defaults not filled")
	}
}
