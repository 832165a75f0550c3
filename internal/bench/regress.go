package bench

// Perf-regression gating: diff a fresh experiment run against a committed
// baseline. The simulator is deterministic, so every field — raw
// counters, throughput and derived rates alike — must match exactly.

import (
	"fmt"
	"math"
	"sort"
)

// Regression is one baseline/current mismatch.
type Regression struct {
	Experiment string
	Series     string
	Threads    int
	Field      string
	Baseline   float64
	Current    float64
	RelDiff    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s [%s t=%d] %s: baseline %g, current %g (%.2f%% diff)",
		r.Experiment, r.Series, r.Threads, r.Field, r.Baseline, r.Current, 100*r.RelDiff)
}

// relDiff is the symmetric relative difference |a−b|/max(|a|,|b|) of
// two unequal values.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// pointKey matches points across documents.
type pointKey struct {
	series  string
	threads int
}

// CompareExperiments diffs current against baseline and returns every
// field whose value differs, in deterministic order.
func CompareExperiments(baseline, current *ExperimentJSON) []Regression {
	var out []Regression
	add := func(key pointKey, field string, base, cur float64) {
		if base != cur {
			out = append(out, Regression{
				Experiment: current.Name,
				Series:     key.series,
				Threads:    key.threads,
				Field:      field,
				Baseline:   base,
				Current:    cur,
				RelDiff:    relDiff(base, cur),
			})
		}
	}

	basePoints := map[pointKey]*PointJSON{}
	for i := range baseline.Points {
		p := &baseline.Points[i]
		basePoints[pointKey{p.Series, p.Threads}] = p
	}
	seen := map[pointKey]bool{}
	for i := range current.Points {
		cur := &current.Points[i]
		key := pointKey{cur.Series, cur.Threads}
		seen[key] = true
		base, ok := basePoints[key]
		if !ok {
			out = append(out, Regression{
				Experiment: current.Name, Series: key.series, Threads: key.threads,
				Field: "(point missing from baseline)",
			})
			continue
		}
		add(key, "ops", float64(base.Ops), float64(cur.Ops))
		add(key, "throughput", base.Throughput, cur.Throughput)
		add(key, "avg_segment_limit", base.AvgSegmentLimit, cur.AvgSegmentLimit)

		for _, name := range sortedKeys(base.Derived, cur.Derived) {
			add(key, "derived."+name, base.Derived[name], cur.Derived[name])
		}
		for _, name := range sortedKeys(base.Metrics.Counters, cur.Metrics.Counters) {
			add(key, name, float64(base.Metrics.Counters[name]),
				float64(cur.Metrics.Counters[name]))
		}
		for _, name := range sortedKeys(base.Metrics.Gauges, cur.Metrics.Gauges) {
			add(key, name, float64(base.Metrics.Gauges[name]),
				float64(cur.Metrics.Gauges[name]))
		}
		for _, name := range sortedKeys(base.Metrics.Histograms, cur.Metrics.Histograms) {
			b, c := base.Metrics.Histograms[name], cur.Metrics.Histograms[name]
			add(key, name+".count", float64(b.Count), float64(c.Count))
			add(key, name+".sum", float64(b.Sum), float64(c.Sum))
		}
	}
	for key := range basePoints {
		if !seen[key] {
			out = append(out, Regression{
				Experiment: current.Name, Series: key.series, Threads: key.threads,
				Field: "(point missing from current run)",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Series != b.Series {
			return a.Series < b.Series
		}
		if a.Threads != b.Threads {
			return a.Threads < b.Threads
		}
		return a.Field < b.Field
	})
	return out
}

// sortedKeys merges the key sets of two maps into one sorted list, so a
// metric present on only one side is still compared (against zero).
func sortedKeys[V any](a, b map[string]V) []string {
	set := map[string]struct{}{}
	for k := range a {
		set[k] = struct{}{}
	}
	for k := range b {
		set[k] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
