package main

// Compare mode: two sets of untraced runs, usually of a parent commit
// (A) and a change (B), judged metric by metric and workload by workload
// against the bounds in BENCHMARK.json.

import (
	"fmt"
	"io"
	"sort"
)

// verdict judges B against A on one metric. gain is B's relative
// improvement over A's median (negative when B is worse); spread is the
// wider of the two sides' quartile distances relative to their medians.
// A metric whose spread exceeds its bound is unresolved, unless every
// run of one side beats every run of the other.
func verdict(s metricSpec, a, b []float64) (v string, gain, spread float64) {
	ma, mb := median(a), median(b)
	gain = (mb - ma) / ma
	if s.Better == "lower" {
		gain = -gain
	}
	spread = max(iqr(a)/ma, iqr(b)/mb)
	beats := func(x, y float64) bool {
		if s.Better == "lower" {
			return x < y
		}
		return x > y
	}
	switch {
	case allBeat(b, a, beats):
		return "better", gain, spread
	case spread > s.Bound && !allBeat(a, b, beats):
		return "unresolved", gain, spread
	case -gain > s.Bound:
		return "worse", gain, spread
	case gain > spread:
		return "better", gain, spread
	}
	return "same", gain, spread
}

func iqr(xs []float64) float64 { return quantile(xs, 3, 4) - quantile(xs, 1, 4) }

// allBeat reports whether every value of xs beats every value of ys.
func allBeat(xs, ys []float64, beats func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(x, y) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per end-to-end metric and workload, then
// any run that failed and any simulated count or digest that differs
// between runs of the same workload and seed. It reports whether
// anything is worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	worse := false
	byA, byB := untracedByWorkload(a), untracedByWorkload(b)
	fmt.Fprintf(w, "%-14s %-16s %-36s %-36s %8s %7s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B gain", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := byA[wl.name], byB[wl.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-14s runs on one side only\n", wl.name)
			worse = true
			continue
		}
		for _, s := range sp.EndToEnd {
			va, vb := metricValues(ra, s.Name), metricValues(rb, s.Name)
			v, gain, spread := verdict(s, va, vb)
			fmt.Fprintf(w, "%-14s %-16s %-36s %-36s %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				wl.name, s.Name, quartiles(va), quartiles(vb), 100*gain, 100*spread, 100*s.Bound, v)
			if v == "worse" {
				worse = true
			}
		}
	}
	for _, side := range []struct {
		name string
		recs []record
	}{{"A", a}, {"B", b}} {
		for _, r := range side.recs {
			if !r.Correct {
				fmt.Fprintf(w, "%s: %s seed %d trace %d: %d of %d runs failed\n", side.name, r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
				worse = true
			}
		}
	}
	for _, msg := range identityMismatches(a, b) {
		fmt.Fprintln(w, msg)
		worse = true
	}
	return worse, nil
}

func untracedByWorkload(rs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range rs {
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), quantile(xs, 1, 4), quantile(xs, 3, 4))
}

// identityMismatches lists every pair of runs of the same workload and
// seed whose simulated counts or digests differ: the simulated machine
// must not change between two runs, traced or not, or two commits.
func identityMismatches(a, b []record) []string {
	type key struct {
		workload string
		seed     uint64
	}
	first := map[key]record{}
	var out []string
	for _, r := range append(append([]record(nil), a...), b...) {
		k := key{r.Workload, r.Seed}
		ref, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		if r.Digest != ref.Digest {
			out = append(out, fmt.Sprintf("%s seed %d: simulated digest %.12s differs from %.12s", k.workload, k.seed, r.Digest, ref.Digest))
		}
		names := make([]string, 0, len(ref.Counts))
		for name := range ref.Counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if r.Counts[name] != ref.Counts[name] {
				out = append(out, fmt.Sprintf("%s seed %d: count %s is %v, was %v", k.workload, k.seed, name, r.Counts[name], ref.Counts[name]))
			}
		}
	}
	return out
}
