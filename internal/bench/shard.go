package bench

// Shard-level decomposition of experiment sweeps. Every experiment is a
// sweep over a thread axis, and the thread count is the outermost loop,
// so restricting the axis to a subset of its points partitions the sweep
// into independent shards whose point lists concatenate — in axis order —
// back into exactly the full sweep's point list. A caller plans shards
// here, runs each one separately, and splices the results; byte-identity
// with the full sweep follows from the simulator's determinism plus this
// decomposition being a pure reordering of the same simulations.

import "fmt"

// SweepAxis resolves the thread counts experiment e actually sweeps
// under o: the experiment's own axis when it declares one (E10's fixed
// big-machine list, E9's ≥2-thread filter), o.Threads otherwise.
func SweepAxis(e *Experiment, o Options) []int {
	o = o.WithDefaults()
	if e.Axis != nil {
		return e.Axis(o)
	}
	return o.Threads
}

// ShardPlan decomposes e's sweep under o into single-point shards, one
// per axis thread count, in axis order. Concatenating the shard
// documents' points in plan order reproduces the full sweep's point
// list exactly, because the thread count is every experiment's
// outermost sweep loop.
func ShardPlan(e *Experiment, o Options) [][]int {
	axis := SweepAxis(e, o)
	plan := make([][]int, len(axis))
	for i, n := range axis {
		plan[i] = []int{n}
	}
	return plan
}

// ShardKey returns the content address of one shard of e's sweep: the
// whole-sweep identity (same fields as ExperimentKey) plus the shard's
// thread counts. Distinct from ExperimentKey by construction — the kind
// tag differs — so a cached shard can never be mistaken for a cached
// full sweep, or vice versa.
func ShardKey(e *Experiment, o Options, shard []int) (string, error) {
	if len(shard) == 0 {
		return "", fmt.Errorf("bench: empty shard for experiment %s", e.ID)
	}
	o = o.WithDefaults()
	doc := struct {
		Schema     int
		Experiment string
		Options    OptionsJSON
		Sanitize   bool
		Shard      []int
	}{
		Schema:     SchemaVersion,
		Experiment: e.ID,
		Options: OptionsJSON{
			Threads:   o.Threads,
			MeasureMs: o.MeasureMs,
			WarmupMs:  o.WarmupMs,
			Seed:      o.Seed,
			Profile:   o.Profile,
		},
		Sanitize: o.Sanitize,
		Shard:    shard,
	}
	return CanonicalKey("bench.ExperimentShard", doc)
}

// RunExperimentShard runs just the given thread counts of e's sweep
// under o and returns the shard document. Every point is simulated
// exactly as it would be inside the full sweep — same config, same
// seed — and the document's Options block records the full sweep's
// parameters, so shard documents are directly spliceable: replacing a
// full document's points with the concatenation of its shards' points
// changes nothing else.
func RunExperimentShard(e *Experiment, o Options, shard []int) (*ExperimentJSON, error) {
	if len(shard) == 0 {
		return nil, fmt.Errorf("bench: empty shard for experiment %s", e.ID)
	}
	o = o.WithDefaults()
	o.ShardThreads = shard
	doc, _, err := RunExperimentJSON(e, o)
	if err != nil {
		return nil, err
	}
	return doc, nil
}
