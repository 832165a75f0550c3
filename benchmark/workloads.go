package main

// The four workloads. A workload is a pass: an ordered list of
// simulation runs (sweep points or fuzz runs) generated from the
// workload seed alone and issued one after another by a single client,
// the way stbench and stfuzz issue them. A pass repeated with the same
// seed must reproduce every simulated bit, which is the benchmark's own
// determinism check.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"stacktrack/internal/bench"
	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/explore"
)

// tinyMs is the warmup and measure window of a set-up pass, in virtual
// milliseconds: 27 cycles. It must stay above zero, because a zero
// window selects the full default window.
const tinyMs = 1e-5

var tinyCycles = cost.FromSeconds(tinyMs / 1000)

// A workload issues its pass through rec. tiny selects the set-up pass:
// the same calls with windows of a few virtual cycles, so only building,
// prefilling, draining and pooling a machine remain. Why each workload
// was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	pass func(ctx context.Context, seed uint64, tiny bool, rec *recorder) error
}

var workloads = []workload{
	{"paper-sweep", paperSweep},
	{"tx-scan", txScan},
	{"plain-oversub", plainOversub},
	{"fuzz-campaign", fuzzCampaign},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// paperSweepIDs are the experiments whose quick sweeps are committed as
// BENCH_<ID>.json baselines.
var paperSweepIDs = []string{"E1a", "E2b", "E3"}

// paperSweep is stbench -quick -run E1a,E2b,E3 in process, through the
// same cancellable RunExperimentJSON path stbench takes.
func paperSweep(ctx context.Context, seed uint64, tiny bool, rec *recorder) error {
	for _, id := range paperSweepIDs {
		e := bench.FindExperiment(id)
		o := bench.QuickOptions()
		o.Seed = seed
		o.Ctx = ctx
		if tiny {
			o.WarmupMs, o.MeasureMs = tinyMs, tinyMs
		}
		o.Collect = func(series string, threads int, res *bench.Result) {
			rec.unit(fmt.Sprintf("%s/%s/%d", id, series, threads), res.Decisions, res, checkConservation(res))
		}
		rec.begin(id)
		doc, _, err := bench.RunExperimentJSON(e, o)
		rec.end()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		rec.docs = append(rec.docs, doc)
	}
	return nil
}

// The sweep workloads run a few simulation seeds per configuration with
// windows of a few virtual milliseconds: a pass then takes about two
// host seconds, and one measurement repeats it often enough to hold a
// hundred runs, ten of them beyond the 90th percentile.
const (
	txScanSeeds  = 8
	oversubSeeds = 4
	fuzzRuns     = 50
)

// pointSeed derives the simulation seed of the k-th configuration of a
// pass. It is never 0, which would select the harness default.
func pointSeed(seed uint64, k int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(k) + 1
}

// txScan drives StackTrack's own mechanism hardest: a 100K-node skip
// list with 50% mutations and SCAN_AND_FREE on every free, at 4 threads
// and at 8, where hyperthread siblings shrink transactional capacity.
func txScan(ctx context.Context, seed uint64, tiny bool, rec *recorder) error {
	var cfgs []bench.Config
	for k := 0; k < txScanSeeds; k++ {
		for _, n := range []int{4, 8} {
			cfgs = append(cfgs, bench.Config{
				Structure: bench.StructSkipList, Scheme: bench.SchemeStackTrack,
				Threads: n, Seed: pointSeed(seed, k), MutatePct: 50,
				Core: core.Config{MaxFree: 1},
			})
		}
	}
	return runConfigs(ctx, "tx-scan", cfgs, 0.5, 2, tiny, rec)
}

// plainOversub runs the baseline schemes at 16 threads on the 8-context
// machine: preemption, rotation and Epoch's blocked polls, with neither
// core nor a transaction on the path.
func plainOversub(ctx context.Context, seed uint64, tiny bool, rec *recorder) error {
	var cfgs []bench.Config
	for k := 0; k < oversubSeeds; k++ {
		for _, s := range []string{bench.SchemeOriginal, bench.SchemeHazards, bench.SchemeEpoch} {
			cfgs = append(cfgs, bench.Config{
				Structure: bench.StructList, Scheme: s, Threads: 16, Seed: pointSeed(seed, k),
			})
		}
	}
	return runConfigs(ctx, "plain-oversub", cfgs, 1, 4, tiny, rec)
}

// runConfigs runs each configuration with the given virtual windows, in
// milliseconds.
func runConfigs(ctx context.Context, group string, cfgs []bench.Config, warmupMs, measureMs float64, tiny bool, rec *recorder) error {
	rec.begin(group)
	defer rec.end()
	for _, cfg := range cfgs {
		cfg.WarmupCycles = cost.FromSeconds(warmupMs / 1000)
		cfg.MeasureCycles = cost.FromSeconds(measureMs / 1000)
		if tiny {
			cfg.WarmupCycles, cfg.MeasureCycles = tinyCycles, tinyCycles
		}
		res, err := bench.RunContext(ctx, cfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s/%d/%#x", cfg.Scheme, cfg.Threads, cfg.Seed)
		rec.unit(name, res.Decisions, res, checkConservation(res))
	}
	return nil
}

// fuzzCampaign is stfuzz -ds list -scheme stacktrack -max-runs 50
// -workers 1: explore defaults (7 threads, random walk, poison,
// conservation and crash oracles) over workload seeds seed..seed+49.
func fuzzCampaign(ctx context.Context, seed uint64, tiny bool, rec *recorder) error {
	if seed == 0 {
		seed = 1 // stfuzz's default first seed
	}
	rec.begin("fuzz-campaign")
	defer rec.end()
	for i := uint64(0); i < fuzzRuns; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := explore.RunConfig{Structure: bench.StructList, Scheme: bench.SchemeStackTrack, Seed: seed + i}
		if tiny {
			cfg.WarmupCycles, cfg.MeasureCycles = tinyCycles, tinyCycles
		}
		out, err := explore.Record(cfg)
		if err != nil {
			return err
		}
		fail := ""
		if out.Verdict.Failed {
			fail = out.Verdict.String()
		}
		rec.unit(fmt.Sprintf("seed=%d", cfg.Seed), out.Steps, out.Result, fail, out.Verdict, len(out.Log.Decisions))
	}
	return nil
}

// checkConservation reports a broken set ledger:
// FinalCount == InitialSize + TotalInserts - TotalDeletes.
func checkConservation(res *bench.Result) string {
	switch res.Config.Structure {
	case bench.StructList, bench.StructSkipList, bench.StructHash:
	default:
		return ""
	}
	want := int64(res.Config.InitialSize) + int64(res.TotalInserts) - int64(res.TotalDeletes)
	if int64(res.FinalCount) != want {
		return fmt.Sprintf("conservation: final count %d, ledger says %d", res.FinalCount, want)
	}
	return ""
}

// digest hashes everything simulated about one run; host-side fields
// never enter it. extra carries workload-specific outcomes (a fuzz
// verdict and schedule length).
func digest(decisions uint64, res *bench.Result, extra ...any) (string, error) {
	v := struct {
		Decisions uint64
		Extra     []any
		Result    any
	}{Decisions: decisions, Extra: extra}
	if res != nil {
		v.Result = struct {
			Ops, TotalInserts, TotalDeletes, LiveObjects, UAFReads uint64
			Throughput                                             float64
			FinalCount, PendingFrees                               int
			Metrics                                                any
		}{res.Ops, res.TotalInserts, res.TotalDeletes, res.LiveObjects, res.UAFReads,
			res.Throughput, res.FinalCount, res.PendingFrees, res.Metrics}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}
