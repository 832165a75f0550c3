package bench

// Bit-identity guard for host-side changes: every structure × scheme ×
// thread-count point must keep producing the same simulated result. The
// sha256 of each point's simulated digest is pinned in
// testdata/sim_digests.golden; a host optimization that changes any
// simulated bit fails here. Regenerate with `go test ./internal/bench/
// -run SimDigestsGolden -update` only for a deliberate re-baseline of
// simulated behavior.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stacktrack/internal/cost"
)

// simDigest is everything simulated about a point, nothing host-derived.
func simDigest(series string, threads int, res *Result) ([]byte, error) {
	return json.Marshal(struct {
		Series  string
		Threads int
		Ops     uint64
		Metrics any
	}{series, threads, res.Ops, res.Metrics})
}

// identitySchemes returns the scheme set the paper evaluates on a
// structure (DTA is list-only).
func identitySchemes(structure string) []string {
	s := []string{SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack}
	if structure == StructList {
		s = append(s, SchemeDTA)
	}
	return s
}

func TestSimDigestsGolden(t *testing.T) {
	var b strings.Builder
	structures := []string{StructList, StructSkipList, StructQueue, StructHash, StructRBTree}
	for _, structure := range structures {
		for _, scheme := range identitySchemes(structure) {
			for _, threads := range []int{2, 7} {
				res, err := Run(Config{
					Structure:     structure,
					Scheme:        scheme,
					Threads:       threads,
					Seed:          0x57ACC7AC4,
					InitialSize:   120,
					KeyRange:      240,
					Buckets:       64,
					QueuePrefill:  64,
					WarmupCycles:  cost.FromSeconds(0.0003),
					MeasureCycles: cost.FromSeconds(0.0015),
					MemWords:      1 << 20,
					Validate:      true,
				})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", structure, scheme, threads, err)
				}
				d, err := simDigest(scheme, threads, res)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s/%s/%d %x count=%d live=%d\n",
					structure, scheme, threads, sha256.Sum256(d), res.FinalCount, res.LiveObjects)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "sim_digests.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("simulated digests diverged from %s (re-run with -update only for a deliberate re-baseline)\ngot:\n%swant:\n%s",
			path, got, want)
	}
}

// BenchmarkRunPoint measures one full simulated point end to end — the
// core interpreter hot path under a real workload.
func BenchmarkRunPoint(b *testing.B) {
	for _, scheme := range []string{SchemeOriginal, SchemeStackTrack} {
		b.Run(scheme, func(b *testing.B) {
			cfg := smokeCfg(StructList, scheme, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Decisions), "ns/block")
				}
			}
		})
	}
}
