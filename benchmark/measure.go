package main

// Passes, their per-run records and the checks on their simulated
// output.

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"stacktrack/internal/bench"
)

// unitRec is one simulation run of a pass: a sweep point or a fuzz run.
type unitRec struct {
	name      string
	ns        int64 // host latency
	decisions uint64
	digest    string
	fail      string
}

// recorder observes one pass as the workload issues it.
type recorder struct {
	last   time.Time // end of the previous run
	units  []unitRec
	counts counts
	docs   []*bench.ExperimentJSON // paper-sweep only
	probes
	refs []time.Duration // reference times, one after each run

	ops uint64 // simulated operations of the whole pass

	group              string
	groupStart         time.Time
	groupDec, groupOps uint64
}

// probes are what a pass carries besides the workload: spans in a
// traced run, the speed reference in an untraced one. Either may be nil.
type probes struct {
	spans *spanLog
	ref   *reference
}

func newRecorder(pr probes) *recorder {
	return &recorder{last: time.Now(), counts: counts{}, probes: pr}
}

func (r *recorder) begin(group string) {
	r.group, r.groupDec, r.groupOps = group, 0, 0
	r.groupStart = time.Now()
	r.last = r.groupStart
}

func (r *recorder) end() {
	r.spans.add("experiment", r.group, r.groupStart, time.Now(), r.groupDec, r.groupOps)
}

// unit records a finished run. Its latency runs from the end of the
// previous run, so a sweep point carries its own set-up and drain.
func (r *recorder) unit(name string, decisions uint64, res *bench.Result, fail string, extra ...any) {
	now := time.Now()
	var ops uint64
	if res != nil {
		ops = res.Ops
	}
	d, err := digest(decisions, res, extra...)
	if err != nil && fail == "" {
		fail = "digest: " + err.Error()
	}
	r.units = append(r.units, unitRec{name: name, ns: now.Sub(r.last).Nanoseconds(), decisions: decisions, digest: d, fail: fail})
	r.counts.add(decisions, res)
	r.spans.add("run", name, r.last, now, decisions, ops)
	r.groupDec += decisions
	r.groupOps += ops
	r.ops += ops
	if r.ref != nil {
		r.refs = append(r.refs, r.ref.run())
	}
	r.last = time.Now() // the digest and reference are the benchmark's cost, not the next run's
}

// pass is one completed pass with its host cost. sec excludes the
// reference's own time; speed scales host times to the reference speed
// (1 when the pass ran no reference).
type pass struct {
	sec        float64
	speed      float64
	rec        *recorder
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// normSec is the pass's host time at the reference speed.
func (p pass) normSec() float64 { return p.sec * p.speed }

func (p pass) decisions() uint64 {
	var n uint64
	for _, u := range p.rec.units {
		n += u.decisions
	}
	return n
}

// digest hashes the pass's per-run digests in order.
func (p pass) digest() string {
	h := sha256.New()
	for _, u := range p.rec.units {
		h.Write([]byte(u.digest))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runPass issues one pass. A panic inside the simulation is a failed
// run, not a crashed benchmark.
func runPass(ctx context.Context, w *workload, seed uint64, tiny bool, pr probes) (p pass, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.rec = newRecorder(pr)
	start := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		err = w.pass(ctx, seed, tiny, p.rec)
	}()
	elapsed := time.Since(start)
	p.speed = 1
	if len(p.rec.refs) > 0 {
		var refs []float64
		for _, d := range p.rec.refs {
			elapsed -= d
			refs = append(refs, float64(d))
		}
		p.speed = float64(refNominal) / median(refs)
	}
	p.sec = elapsed.Seconds()
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	if err != nil {
		err = fmt.Errorf("%s pass: %w", w.name, err)
	}
	return p, err
}

// timedPasses repeats the pass for about budget seconds: as many passes
// as the first one says fit, and at least atLeast. The count is fixed
// after the first pass because deciding after each pass whether another
// fits would end more often after a slow pass, biasing the last one slow.
func timedPasses(ctx context.Context, w *workload, seed uint64, budget float64, atLeast int, pr probes) ([]pass, error) {
	var out []pass
	for n := atLeast; len(out) < n; {
		start := time.Now()
		p, err := runPass(ctx, w, seed, false, pr)
		out = append(out, p)
		if err != nil {
			return out, err
		}
		if len(out) == 1 {
			n = max(atLeast, int(budget/time.Since(start).Seconds()))
		}
	}
	return out, nil
}

// setupSeconds is the median of setupReps set-up passes, at the
// reference speed.
const setupReps = 9

func setupSeconds(ctx context.Context, w *workload, seed uint64, ref *reference) (float64, error) {
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		p, err := runPass(ctx, w, seed, true, probes{ref: ref})
		if err != nil {
			return 0, err
		}
		secs = append(secs, p.normSec())
	}
	return median(secs), nil
}

//go:embed golden.json
var goldenJSON []byte

// verify marks every run whose simulated result differs from the same
// run of the first pass. At seed 0 it also holds the first pass to the
// committed results: BENCH_<ID>.json byte for byte for paper-sweep, and
// the per-run digests of golden.json for the other workloads.
func verify(w *workload, seed uint64, passes []pass) error {
	first := passes[0].rec.units
	for _, p := range passes[1:] {
		if len(p.rec.units) != len(first) {
			return fmt.Errorf("a pass ran %d simulations, the first ran %d", len(p.rec.units), len(first))
		}
		for i := range p.rec.units {
			if p.rec.units[i].digest != first[i].digest {
				p.rec.units[i].markFailed("simulated result differs from the first pass")
			}
		}
	}
	if seed != 0 {
		return nil
	}
	markAll := func(match func(i int, u unitRec) bool, why string) {
		for _, p := range passes {
			for i, u := range p.rec.units {
				if match(i, u) {
					p.rec.units[i].markFailed(why)
				}
			}
		}
	}
	if w.name == "paper-sweep" {
		for _, doc := range passes[0].rec.docs {
			if err := matchBaseline(".", doc); err != nil {
				prefix := doc.ID + "/"
				markAll(func(_ int, u unitRec) bool { return strings.HasPrefix(u.name, prefix) }, err.Error())
			}
		}
		return nil
	}
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := golden[w.name]
	markAll(func(i int, u unitRec) bool { return i >= len(want) || first[i].digest != want[i] },
		"simulated result differs from golden.json")
	return nil
}

func (u *unitRec) markFailed(why string) {
	if u.fail == "" {
		u.fail = why
	}
}

// matchBaseline compares an experiment document, serialized exactly as
// stbench -baseline writes it, with the committed BENCH_<ID>.json in dir.
func matchBaseline(dir string, doc *bench.ExperimentJSON) error {
	got, err := json.MarshalIndent(&bench.ResultsJSON{Schema: bench.SchemaVersion, Experiments: []*bench.ExperimentJSON{doc}}, "", "  ")
	if err != nil {
		return err
	}
	path := bench.BaselineFile(dir, &bench.Experiment{ID: doc.ID})
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(append(got, '\n'), want) {
		return fmt.Errorf("%s is not byte-identical to a fresh run", path)
	}
	return nil
}

// writeGolden regenerates golden.json from one seed-0 pass of every
// workload that is checked by digest.
func writeGolden(ctx context.Context, path string) error {
	golden := map[string][]string{}
	for i := range workloads {
		w := &workloads[i]
		if w.name == "paper-sweep" {
			continue
		}
		p, err := runPass(ctx, w, 0, false, probes{})
		if err != nil {
			return err
		}
		for _, u := range p.rec.units {
			if u.fail != "" {
				return fmt.Errorf("%s %s: %s", w.name, u.name, u.fail)
			}
			golden[w.name] = append(golden[w.name], u.digest)
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// counts are the simulated event counts of one pass, summed over its
// runs. They are exact, so two commits must agree on them bit for bit.
// Registry counters cover the measurement windows only; decisions cover
// whole runs, so the two must not be divided by each other.
type counts map[string]float64

// countSources maps each count to the registry counters or gauges it sums.
var countSources = []struct {
	name string
	from []string
}{
	{"sched.preemptions", []string{"sched.preemptions"}},
	{"sched.context_switches", []string{"sched.context_switches"}},
	{"sched.blocked_polls", []string{"sched.blocked_polls"}},
	{"mem.plain_accesses", []string{"mem.plain_reads", "mem.plain_writes"}},
	{"mem.tx_accesses", []string{"mem.tx_reads", "mem.tx_writes"}},
	{"mem.tx_begins", []string{"mem.tx_begins"}},
	{"mem.commits", []string{"mem.commits"}},
	{"mem.aborts_capacity", []string{"mem.aborts_capacity"}},
	{"mem.aborts_conflict", []string{"mem.aborts_conflict"}},
	{"mem.coherence_misses", []string{"mem.coherence_misses"}},
	{"alloc.allocs", []string{"alloc.allocs"}},
	{"alloc.frees", []string{"alloc.frees"}},
	{"core.segments", []string{"core.segments"}},
	{"core.scans", []string{"core.scans"}},
	{"core.scanned_words", []string{"core.scanned_words"}},
	{"core.elided_words", []string{"core.elided_words"}},
	{"core.scan_restarts", []string{"core.scan_restarts"}},
	{"core.ops_slow", []string{"core.ops_slow"}},
}

func (c counts) add(decisions uint64, res *bench.Result) {
	c["sched.decisions"] += float64(decisions)
	if res == nil {
		return
	}
	for _, s := range countSources {
		for _, n := range s.from {
			c[s.name] += float64(res.Metrics.Counters[n]) + float64(res.Metrics.Gauges[n])
		}
	}
}

// metrics turns the raw sums into the reported counts: commits and
// elided words become fractions of their attempts.
func (c counts) metrics() map[string]float64 {
	out := map[string]float64{}
	for k, v := range c {
		out[k] = v
	}
	out["mem.commit_frac"] = ratio(c["mem.commits"], c["mem.tx_begins"])
	out["core.elided_frac"] = ratio(c["core.elided_words"], c["core.elided_words"]+c["core.scanned_words"])
	delete(out, "mem.commits")
	delete(out, "core.elided_words")
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median and quantile follow Python's statistics.quantiles with its
// default "exclusive" method, so numbers printed here match the ones
// Python recomputes from the JSON lines.
func median(xs []float64) float64 { return quantile(xs, 1, 2) }

// quantile returns the i-th of the n-quantiles of xs.
func quantile(xs []float64, i, n int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
