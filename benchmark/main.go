// Command benchmark measures how much host time and memory the
// simulator needs to produce the paper's results, on four workloads,
// and fails any run whose simulated output is wrong.
//
// Run it from the repository root:
//
//	benchmark -workload paper-sweep -seed 1 -seconds 20 -trace 0
//	benchmark -workload tx-scan -trace 1      # per-layer counts, profile, microbenchmarks
//	benchmark -layers                          # microbenchmarks only
//	benchmark -compare A.jsonl B.jsonl         # two sets of -out records
//	benchmark -write-golden                    # regenerate benchmark/golden.json
//
// Every metric is host time or host memory; simulated statistics are
// correctness outputs and are checked, not reported. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics, with the units BENCHMARK.json gives them. Exit status is 1
// when a run fails or a comparison finds a regression, 2 on errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out keeps it: the result plus what -compare
// needs to check that two commits simulated the same thing.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
	Counts map[string]float64 `json:"counts"`
	Digest string             `json:"digest"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: paper-sweep, tx-scan, plain-oversub or fuzz-campaign")
		seed     = fs.Uint64("seed", 0, "workload seed; 0 is the canonical seed, checked against the committed results")
		seconds  = fs.Float64("seconds", 20, "host seconds one run measures")
		traceArg = fs.Int("trace", 0, "1 runs the traced variant: per-layer counts, CPU profile by layer, microbenchmarks")
		outPath  = fs.String("out", "", "append the run's record (metrics, counts, digest) to this JSON-lines file")
		outDir   = fs.String("outdir", ".bench_build", "directory for the traced run's CPU profile and spans")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a worse row")
		golden   = fs.Bool("write-golden", false, "regenerate benchmark/golden.json from seed-0 passes")
		layers   = fs.Bool("layers", false, "run only the layer microbenchmarks")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two record files"))
		}
		worse, err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *golden:
		if err := writeGolden(ctx, filepath.Join("benchmark", "golden.json")); err != nil {
			return fail(err)
		}
		return 0
	case *layers:
		m, err := runMicros()
		if err != nil {
			return fail(err)
		}
		printMetrics(stdout, sp.PerLayer, m)
		return 0
	}

	w := findWorkload(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *traceArg != 0 && *traceArg != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	rec, err := measure(ctx, w, *seed, *seconds, *traceArg == 1, *outDir, stderr)
	if err != nil {
		return fail(err)
	}
	want := sp.EndToEnd
	if rec.Trace == 1 {
		want = sp.PerLayer
	}
	// A failed run may stop before every metric is measured; its metrics
	// are then left out, since the run is rejected anyway.
	if rec.Metrics, err = withUnits(want, rec.raw); err != nil && rec.Correct {
		return fail(err)
	}
	printMetrics(stderr, want, rec.raw)
	if *outPath != "" {
		if err := appendRecord(*outPath, &rec.record); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// measured is a record before its metrics get their units.
type measured struct {
	record
	raw map[string]float64
}

// measure runs one workload. The untraced run times set-up passes and
// then timed passes; the traced run splits its budget between untraced
// passes (for the counts and the overhead baseline) and passes under the
// CPU profiler and spans, then runs the microbenchmarks.
func measure(ctx context.Context, w *workload, seed uint64, seconds float64, traced bool, outDir string, log io.Writer) (*measured, error) {
	rec := &measured{record: record{Workload: w.name, Seed: seed}, raw: map[string]float64{}}
	m := rec.raw
	var passes []pass
	var runErr error
	if !traced {
		ref := newReference()
		setup, err := setupSeconds(ctx, w, seed, ref)
		if err != nil {
			return nil, err
		}
		// Two passes at least: paper-sweep and fuzz-campaign then hold 100
		// runs or more, ten of them beyond the 90th percentile.
		passes, runErr = timedPasses(ctx, w, seed, seconds, 2, probes{ref: ref})
		var secs, ms, speeds []float64
		var dec, total float64
		for _, p := range passes {
			speeds = append(speeds, p.speed)
			secs = append(secs, p.normSec())
			dec += float64(p.decisions())
			total += p.normSec()
			for _, u := range p.rec.units {
				ms = append(ms, float64(u.ns)/1e6*p.speed)
			}
		}
		fmt.Fprintf(log, "%s: %d passes, host at %.3f of the reference speed\n", w.name, len(passes), 1/median(speeds))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m["wall_s"] = median(secs)
		m["decisions_per_s"] = dec / total
		m["setup_s"] = setup
		m["peak_rss_mb"] = rss
		m["run_ms_p50"] = quantile(ms, 1, 2)
		m["run_ms_p90"] = quantile(ms, 9, 10)
	} else {
		rec.Trace = 1
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		// One set-up pass first fills the memory pool, as the set-up
		// passes of an untraced run do, so neither half starts cold.
		if _, err := runPass(ctx, w, seed, true, probes{}); err != nil {
			return nil, err
		}
		untraced, err := timedPasses(ctx, w, seed, seconds/2, 1, probes{})
		passes, runErr = untraced, err
		if runErr == nil {
			profPath := filepath.Join(outDir, "cpu-"+w.name+".pprof")
			spans := &spanLog{epoch: time.Now()}
			var traced []pass
			if err := withCPUProfile(profPath, func() error {
				traced, runErr = timedPasses(ctx, w, seed, seconds/2, 1, probes{spans: spans})
				var dec, ops uint64
				for _, p := range traced {
					dec += p.decisions()
					ops += p.rec.ops
				}
				spans.add("workload", w.name, spans.epoch, time.Now(), dec, ops)
				return nil
			}); err != nil {
				return nil, err
			}
			passes = append(passes, traced...)
			if runErr == nil {
				if err := spans.write(filepath.Join(outDir, "spans-"+w.name+".json")); err != nil {
					return nil, err
				}
				if err := layerMetrics(m, profPath, untraced, traced, log); err != nil {
					return nil, err
				}
			}
		}
	}

	if err := verify(w, seed, passes); err != nil && runErr == nil {
		runErr = err
	}
	rec.Attempted, rec.Failed = tally(passes, runErr, log)
	rec.Correct = rec.Failed == 0
	rec.Counts = passes[0].rec.counts.metrics()
	rec.Digest = passes[0].digest()
	return rec, nil
}

// tally counts the runs of the passes and the failed ones, printing the
// first few failures. A pass stopped by runErr (a run error or panic)
// counts as one more failed run.
func tally(passes []pass, runErr error, log io.Writer) (attempted, failed int) {
	for _, p := range passes {
		for _, u := range p.rec.units {
			attempted++
			if u.fail != "" {
				if failed < 5 {
					fmt.Fprintf(log, "benchmark: %s: %s\n", u.name, u.fail)
				}
				failed++
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(log, "benchmark: %v\n", runErr)
		attempted++
		failed++
	}
	return attempted, failed
}

// layerMetrics fills in the per-layer metrics of a traced run: the
// counts and Go runtime costs of the untraced passes, the profile of the
// traced passes by layer and phase, and the microbenchmarks.
func layerMetrics(m map[string]float64, profPath string, untraced, traced []pass, log io.Writer) error {
	for k, v := range untraced[0].rec.counts.metrics() {
		m[k] = v
	}
	var allocBytes, dec, gc, pauseNs float64
	var usecs, tsecs []float64
	for _, p := range untraced {
		allocBytes += float64(p.allocBytes)
		dec += float64(p.decisions())
		gc += float64(p.gcCycles)
		pauseNs += float64(p.gcPauseNs)
		usecs = append(usecs, p.sec)
	}
	n := float64(len(untraced))
	m["runtime.alloc_bytes_per_decision"] = allocBytes / dec
	m["runtime.gc_cycles"] = gc / n
	m["runtime.gc_pause_s"] = pauseNs / n / 1e9

	var tracedDec float64
	for _, p := range traced {
		tracedDec += float64(p.decisions())
		tsecs = append(tsecs, p.sec)
	}
	tbl, err := profileLayers(profPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%-13s %8s %10s %12s\n", "layer", "samples", "self_frac", "ns/decision")
	for _, l := range layers {
		d := tbl.layer[l]
		m[l+".self_frac"] = float64(d) / float64(tbl.total)
		m[l+".self_ns_per_decision"] = float64(d.Nanoseconds()) / tracedDec
		note := ""
		if tbl.samples(d) < minLayerSamples {
			note = "  unresolved"
		}
		fmt.Fprintf(log, "%-13s %8.0f %10.4f %12.2f%s\n", l, tbl.samples(d), m[l+".self_frac"], m[l+".self_ns_per_decision"], note)
	}
	for _, ph := range phases {
		m["phase."+ph+"_frac"] = float64(tbl.phase[ph]) / float64(tbl.total)
	}
	m["trace.samples"] = tbl.samples(tbl.total)
	m["trace.overhead_frac"] = median(tsecs)/median(usecs) - 1

	micro, err := runMicros()
	if err != nil {
		return err
	}
	for k, v := range micro {
		m[k] = v
	}
	return nil
}

// withUnits pairs each measured metric with its unit, and insists that
// the metrics measured are exactly the ones BENCHMARK.json lists.
func withUnits(want []metricSpec, got map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, s := range want {
		v, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for k := range got {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", k)
		}
	}
	return out, nil
}

func printMetrics(w io.Writer, want []metricSpec, got map[string]float64) {
	for _, s := range want {
		if v, ok := got[s.Name]; ok {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", s.Name, v, s.Unit)
		}
	}
}

func appendRecord(path string, r *record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a JSON-lines file of records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}
