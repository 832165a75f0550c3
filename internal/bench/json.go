package bench

// Versioned JSON export of experiment results: every point carries the raw
// metric snapshot plus a few derived rates. Both are bit-exact across
// same-seed runs, so baselines demand equality of every field.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"stacktrack/internal/cost"
	"stacktrack/internal/metrics"
)

// SchemaVersion is bumped whenever the JSON layout changes incompatibly;
// regression comparison refuses to diff documents with different schemas.
const SchemaVersion = 1

// ResultsJSON is the top-level document: one file holds one or more
// experiments (a baseline file conventionally holds exactly one).
type ResultsJSON struct {
	Schema int `json:"schema"`
	// Meta is host-side provenance (wall-clock duration, toolchain, VCS
	// commit). Deliberately absent from baselines — two runs of the same
	// config stay byte-identical wherever byte-identity is load-bearing;
	// only front-ends that want provenance (stbench -json) stamp it.
	Meta        *RunMeta          `json:"meta,omitempty"`
	Experiments []*ExperimentJSON `json:"experiments"`
}

// RunMeta is the host-side provenance block. The fields describe the
// host run that produced the document, never the simulated result.
type RunMeta struct {
	DurationMs float64 `json:"duration_ms,omitempty"`
	GoVersion  string  `json:"go_version,omitempty"`
	Commit     string  `json:"vcs_commit,omitempty"`
	Dirty      bool    `json:"vcs_dirty,omitempty"`
}

// ExperimentJSON is one experiment's full machine-readable result.
type ExperimentJSON struct {
	Schema  int         `json:"schema"`
	Name    string      `json:"name"`
	ID      string      `json:"id,omitempty"`
	Title   string      `json:"title,omitempty"`
	Options OptionsJSON `json:"options"`
	Points  []PointJSON `json:"points"`
}

// OptionsJSON records the sweep parameters the points were produced under,
// so a baseline mismatch in configuration is visible, not silent.
type OptionsJSON struct {
	Threads   []int   `json:"threads"`
	MeasureMs float64 `json:"measure_ms"`
	WarmupMs  float64 `json:"warmup_ms"`
	Seed      uint64  `json:"seed"`
	Profile   bool    `json:"profile,omitempty"`
}

// PointJSON is one (series, threads) measurement point.
type PointJSON struct {
	Series          string                  `json:"series"`
	Threads         int                     `json:"threads"`
	Ops             uint64                  `json:"ops"`
	Throughput      float64                 `json:"throughput"`
	AvgSegmentLimit float64                 `json:"avg_segment_limit,omitempty"`
	Derived         map[string]float64      `json:"derived,omitempty"`
	Metrics         metrics.Snapshot        `json:"metrics"`
	Profile         *metrics.ProfileSummary `json:"profile,omitempty"`
}

// derivedRates computes the per-point derived quantities: ratios of the
// raw counters, as deterministic as the counters themselves.
func derivedRates(threads int, res *Result) map[string]float64 {
	d := map[string]float64{}
	if res.Core.Segments > 0 {
		d["aborts_per_kseg"] = 1000 * float64(res.Mem.Aborts()) / float64(res.Core.Segments)
	}
	ops := res.Core.OpsFast + res.Core.OpsSlow
	if ops > 0 {
		d["splits_per_op"] = float64(res.Core.Segments) / float64(ops)
	}
	if res.Core.ScannedWords > 0 && threads > 0 && res.Config.MeasureCycles > 0 {
		scanCycles := float64(res.Core.ScannedWords) * float64(cost.Load+cost.ScanWord)
		total := float64(threads) * float64(res.Config.MeasureCycles)
		d["scan_penalty_pct"] = 100 * scanCycles / total
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

// pointJSON exports one completed point.
func pointJSON(series string, threads int, res *Result) PointJSON {
	return PointJSON{
		Series:          series,
		Threads:         threads,
		Ops:             res.Ops,
		Throughput:      res.Throughput,
		AvgSegmentLimit: res.AvgSegmentLimit,
		Derived:         derivedRates(threads, res),
		Metrics:         res.Metrics,
		Profile:         res.Profile,
	}
}

// RunExperimentJSON runs one experiment with a point collector installed
// and returns both the machine-readable result and the human-readable
// table.
func RunExperimentJSON(e *Experiment, o Options) (*ExperimentJSON, *Table, error) {
	o = o.WithDefaults()
	out := &ExperimentJSON{
		Schema: SchemaVersion,
		Name:   e.Name,
		ID:     e.ID,
		Options: OptionsJSON{
			Threads:   o.Threads,
			MeasureMs: o.MeasureMs,
			WarmupMs:  o.WarmupMs,
			Seed:      o.Seed,
			Profile:   o.Profile,
		},
	}
	prev := o.Collect // chain, don't clobber, a caller-installed observer
	o.Collect = func(series string, threads int, res *Result) {
		out.Points = append(out.Points, pointJSON(series, threads, res))
		if prev != nil {
			prev(series, threads, res)
		}
	}
	tb, err := e.Run(o)
	if err != nil {
		// Cancellation is not a failed run: the points collected before
		// the context fired are valid measurements, so hand the partial
		// document back with the error and let the caller flush it.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			out.Title = "(interrupted) " + e.Name
			return out, nil, err
		}
		return nil, nil, err
	}
	out.Title = tb.Title
	return out, tb, nil
}

// WriteResultsJSON writes the document to path, indented for diffability.
// Go's encoding/json sorts map keys, so the output is deterministic.
func WriteResultsJSON(path string, doc *ResultsJSON) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResultsJSON loads a document and checks its schema version.
func ReadResultsJSON(path string) (*ResultsJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc ResultsJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, doc.Schema, SchemaVersion)
	}
	return &doc, nil
}

// BaselineFile returns the conventional baseline filename for an
// experiment: BENCH_<ID>.json in dir.
func BaselineFile(dir string, e *Experiment) string {
	if dir == "" {
		dir = "."
	}
	return fmt.Sprintf("%s/BENCH_%s.json", dir, e.ID)
}

// LoadBaseline reads the conventional baseline file for e under dir and
// returns its entry for e. A missing file surfaces as the underlying
// *os.PathError (errors.Is(err, fs.ErrNotExist) holds); a file that
// parses but lacks the experiment is its own error.
func LoadBaseline(dir string, e *Experiment) (*ExperimentJSON, error) {
	path := BaselineFile(dir, e)
	doc, err := ReadResultsJSON(path)
	if err != nil {
		return nil, err
	}
	for _, x := range doc.Experiments {
		if x.ID == e.ID || x.Name == e.Name {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%s: no results for experiment %s (%s)", path, e.Name, e.ID)
}
