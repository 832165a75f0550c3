package bench

import (
	"testing"
)

// TestZipfianWorkloadRuns: a skewed run completes cleanly, is
// deterministic (same config, same counters), and actually differs from
// the uniform run it shadows.
func TestZipfianWorkloadRuns(t *testing.T) {
	cfg := smokeCfg(StructList, SchemeStackTrack, 3)
	cfg.KeyDist = KeyDistZipfian

	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ops == 0 || r1.UAFReads != 0 {
		t.Fatalf("ops=%d uaf=%d", r1.Ops, r1.UAFReads)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ops != r2.Ops || r1.SuccInserts != r2.SuccInserts || r1.SuccDeletes != r2.SuccDeletes {
		t.Fatalf("zipfian run is not deterministic: %+v vs %+v", r1.Ops, r2.Ops)
	}

	uniform, err := Run(smokeCfg(StructList, SchemeStackTrack, 3))
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Ops == r1.Ops && uniform.Hits == r1.Hits && uniform.SuccInserts == r1.SuccInserts {
		t.Fatal("zipfian run indistinguishable from uniform; the skew is not wired in")
	}
}

// TestBadKeyDistRejected: an unknown key distribution, a Zipf skew
// outside (0, 1), and a mutation or slow-path percentage outside
// [0, 100] are configuration errors, not a silent fallback to some other
// workload.
func TestBadKeyDistRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"keydist=gaussian", func(c *Config) { c.KeyDist = "gaussian" }},
		{"zipf-theta=2", func(c *Config) { c.KeyDist, c.ZipfTheta = KeyDistZipfian, 2.0 }},
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
