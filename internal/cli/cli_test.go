package cli

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
	"stacktrack/internal/explore"
	"stacktrack/internal/topo"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",,,", nil},
		{"E1a", []string{"E1a"}},
		{"E1a,E2b", []string{"E1a", "E2b"}},
		{" E1a , E2b ,", []string{"E1a", "E2b"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseThreads(t *testing.T) {
	got, err := ParseThreads("1, 2,4,64")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 4, 64}) {
		t.Fatalf("ParseThreads: got %v, %v", got, err)
	}
	if got, err := ParseThreads(""); err != nil || got != nil {
		t.Fatalf("empty list: got %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-1", "65", "two", "1,2,x"} {
		if _, err := ParseThreads(bad); err == nil {
			t.Errorf("ParseThreads(%q) did not fail", bad)
		} else if !strings.Contains(err.Error(), "-threads") {
			t.Errorf("ParseThreads(%q) error %q does not name the flag", bad, err)
		}
	}
}

func TestVirtualMs(t *testing.T) {
	cases := []struct {
		ms   float64
		want cost.Cycles
		ok   bool
	}{
		{0, 0, true},
		{1, cost.FromSeconds(0.001), true},
		{20, cost.FromSeconds(0.020), true},
		{-5, 0, false},
		{-1, 0, false},
		{math.Copysign(0, -1), 0, true},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
		{1e300, 0, false},
	}
	for _, c := range cases {
		got, err := VirtualMs("measure-ms", c.ms)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("VirtualMs(%v) = %d, %v; want %d", c.ms, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("VirtualMs(%v) = %d, want an error", c.ms, got)
		} else if !strings.Contains(err.Error(), "-measure-ms") {
			t.Errorf("VirtualMs(%v) error %q does not name the flag", c.ms, err)
		}
	}
}

// TestNoFlagDefaults pins what each tool runs with no flags: the
// resolved configs stsim and stfuzz ran before their workload flags
// moved here, and stbench's untouched sweep options.
func TestNoFlagDefaults(t *testing.T) {
	parse := func(def Workload) *Workload {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		w := WorkloadFlags(fs, def)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		return w
	}

	sim, err := parse(SimDefaults).Config()
	if err != nil {
		t.Fatal(err)
	}
	sim.Validate = true // stsim always validates
	wantSim := bench.Config{
		Structure: "skiplist", Scheme: "StackTrack", Threads: 8, Seed: 0x57acc7ac4,
		InitialSize: 100000, KeyRange: 200000, MutatePct: 20, Buckets: 4096, QueuePrefill: 1024,
		WarmupCycles: 0xcdfe60, MeasureCycles: 0x337f980, MemWords: 4194304,
		Topology: topo.Topology{Cores: 4, ThreadsPerCore: 2, L1Lines: 512, ReadSetLines: 4096, SiblingEvictRate: 1, HTSlowdown: 0.6},
		Validate: true,
	}
	if got := sim.WithDefaults(); !reflect.DeepEqual(got, wantSim) {
		t.Errorf("stsim defaults resolve to\n%#v\nwant\n%#v", got, wantSim)
	}

	fuzz, err := parse(FuzzDefaults).RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	fuzz.Strategy = explore.StrategyRandom // stfuzz's -strategy default
	wantFuzz := explore.RunConfig{
		Structure: "list", Scheme: "StackTrack", Threads: 7, Seed: 1,
		InitialSize: 48, KeyRange: 96, MutatePct: 60, Buckets: 16, QueuePrefill: 32,
		WarmupCycles: 0x83d60, MeasureCycles: 0x5265c0, MemWords: 1048576,
		Strategy: "random", StratSeed: 0x9e3779b97f4adb02, Depth: 3, PreemptProb: 0.02,
	}
	if got := fuzz.WithDefaults(); got != wantFuzz {
		t.Errorf("stfuzz defaults resolve to\n%#v\nwant\n%#v", got, wantFuzz)
	}

	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	win := WindowFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range []bench.Options{{}, bench.QuickOptions()} {
		if got, err := win.Options(o); err != nil || !reflect.DeepEqual(got, o) {
			t.Errorf("stbench windows turn %#v into %#v, %v", o, got, err)
		}
	}
}
