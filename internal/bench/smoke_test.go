package bench

import (
	"strings"
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
)

// smokeCfg is a small, fast configuration for integration smoke tests.
func smokeCfg(structure, scheme string, threads int) Config {
	return Config{
		Structure:     structure,
		Scheme:        scheme,
		Threads:       threads,
		InitialSize:   200,
		KeyRange:      400,
		Buckets:       64,
		QueuePrefill:  64,
		WarmupCycles:  cost.FromSeconds(0.0005),
		MeasureCycles: cost.FromSeconds(0.002),
		MemWords:      1 << 20,
		Validate:      true,
	}
}

func TestSmokeAllStructuresAllSchemes(t *testing.T) {
	structures := []string{StructList, StructSkipList, StructQueue, StructHash}
	schemes := []string{SchemeOriginal, SchemeEpoch, SchemeHazards, SchemeStackTrack}
	for _, st := range structures {
		for _, sc := range schemes {
			st, sc := st, sc
			t.Run(st+"/"+sc, func(t *testing.T) {
				res, err := Run(smokeCfg(st, sc, 3))
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops == 0 {
					t.Fatal("no operations completed")
				}
				if res.UAFReads != 0 {
					t.Fatalf("use-after-free reads: %d", res.UAFReads)
				}
				t.Logf("ops=%d throughput=%.0f live=%d baseline=%d pending=%d",
					res.Ops, res.Throughput, res.LiveObjects, res.BaselineLive, res.PendingFrees)
			})
		}
	}
}

func TestSmokeDTAList(t *testing.T) {
	res, err := Run(smokeCfg(StructList, SchemeDTA, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.UAFReads != 0 {
		t.Fatalf("ops=%d uaf=%d", res.Ops, res.UAFReads)
	}
}

func TestSmokeRBTree(t *testing.T) {
	res, err := Run(smokeCfg(StructRBTree, SchemeStackTrack, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Hits == 0 {
		t.Fatalf("ops=%d hits=%d", res.Ops, res.Hits)
	}
}

// TestOversizedTopologyRejected: a machine with more hardware contexts
// than the scheduler supports is a configuration error, not a panic.
func TestOversizedTopologyRejected(t *testing.T) {
	cfg := smokeCfg(StructList, SchemeOriginal, 2)
	cfg.Topology = topo.Haswell8Way()
	cfg.Topology.Cores = sched.MaxContexts/cfg.Topology.ThreadsPerCore + 1
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "hardware contexts") {
		t.Fatalf("%d-context topology: err = %v, want a hardware-context limit error", cfg.Topology.Contexts(), err)
	}
}

// TestBadKeyDistRejected: a mutation or slow-path percentage outside
// [0, 100] is a configuration error, not a silent fallback to some other
// workload.
func TestBadKeyDistRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"mutate=-1", func(c *Config) { c.MutatePct = -1 }},
		{"mutate=101", func(c *Config) { c.MutatePct = 101 }},
		{"slow=-1", func(c *Config) { c.Core.ForceSlowPct = -1 }},
		{"slow=101", func(c *Config) { c.Core.ForceSlowPct = 101 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smokeCfg(StructList, SchemeStackTrack, 2)
			tc.tweak(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("invalid config was accepted")
			}
		})
	}
}

// TestMetricsSnapshotKeys pins the names each scheme reports and the
// measure-start reset: every run has mem.*, sched.*, the alloc.* levels
// and ops.op_cycles; only StackTrack runs add core.* and
// core.seg_len_blocks. The crash precedes the measurement window, so its
// count reads zero, while the allocator's levels, prefill included,
// survive the reset.
func TestMetricsSnapshotKeys(t *testing.T) {
	for _, scheme := range []string{SchemeStackTrack, SchemeEpoch} {
		cfg := quickCfg(scheme)
		cfg.CrashThreads = 1
		m := mustRun(t, cfg).Metrics
		layers := map[string]int{}
		for name := range m.Counters {
			layers[name[:strings.IndexByte(name, '.')]]++
		}
		wantCore, wantHists := 0, 1
		if scheme == SchemeStackTrack {
			wantCore, wantHists = 14, 2
		}
		if layers["mem"] != 14 || layers["sched"] != 4 || layers["core"] != wantCore || len(layers) != 2+min(wantCore, 1) {
			t.Errorf("%s: counters per layer %v", scheme, layers)
		}
		if len(m.Gauges) != 5 || len(m.Histograms) != wantHists {
			t.Errorf("%s: %d gauges, %d histograms", scheme, len(m.Gauges), len(m.Histograms))
		}
		if m.Counters["sched.crashes"] != 0 {
			t.Errorf("%s: sched.crashes = %d, want the pre-window crash reset", scheme, m.Counters["sched.crashes"])
		}
		if m.Gauges["alloc.allocs"] < int64(cfg.InitialSize) {
			t.Errorf("%s: alloc.allocs = %d, below the %d-node prefill", scheme, m.Gauges["alloc.allocs"], cfg.InitialSize)
		}
		for name, h := range m.Histograms {
			var n uint64
			for _, b := range h.Buckets {
				n += b
			}
			if h.Count == 0 || n != h.Count {
				t.Errorf("%s: %s holds %d observations in its buckets, count %d", scheme, name, n, h.Count)
			}
		}
		if h := m.Histograms["core.seg_len_blocks"]; scheme == SchemeStackTrack && h.Count != m.Counters["core.segments"] {
			t.Errorf("segment histogram count %d, core.segments %d", h.Count, m.Counters["core.segments"])
		}
	}
}
