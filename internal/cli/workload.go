package cli

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"stacktrack/internal/bench"
	"stacktrack/internal/explore"
	"stacktrack/internal/mem"
)

// Workload is the workload flag set: the knobs the paper's evaluation
// (§6) varies, registered, documented and checked here once. stsim and
// stfuzz take all of it; stbench takes -seed, -measure-ms and -warmup-ms
// and keeps its own -threads list, a sweep axis. A zero -seed, -initial,
// -mutate, -measure-ms or -warmup-ms means "this tool's default".
type Workload struct {
	DS, Scheme               string
	Threads, Initial, Mutate int
	Seed                     uint64
	MeasureMs, WarmupMs      float64
}

// Each tool's workload when no flag is given.
var (
	SimDefaults  = Workload{DS: bench.StructSkipList, Scheme: bench.SchemeStackTrack, Threads: 8}
	FuzzDefaults = Workload{DS: bench.StructList, Scheme: "stacktrack", Threads: explore.RunConfig{}.WithDefaults().Threads}
)

// WorkloadFlags registers the full flag set on fs, def's values as the
// defaults.
func WorkloadFlags(fs *flag.FlagSet, def Workload) *Workload {
	w := &def
	fs.StringVar(&w.DS, "ds", w.DS, "structure: "+strings.Join(bench.Structures, "|"))
	fs.StringVar(&w.Scheme, "scheme", w.Scheme,
		"scheme, any case: original|epoch|hazards|dta|refcount|stacktrack|unsafefree, or leak|hp|unsafe")
	fs.IntVar(&w.Threads, "threads", w.Threads, fmt.Sprintf("simulated threads (1-%d)", mem.MaxThreads))
	fs.IntVar(&w.Initial, "initial", w.Initial, "initial structure size (0 = default)")
	fs.IntVar(&w.Mutate, "mutate", w.Mutate, "mutation percentage (0 = default)")
	return w.windowFlags(fs)
}

// WindowFlags registers stbench's part: -seed, -measure-ms, -warmup-ms.
func WindowFlags(fs *flag.FlagSet) *Workload { return (&Workload{}).windowFlags(fs) }

func (w *Workload) windowFlags(fs *flag.FlagSet) *Workload {
	fs.Uint64Var(&w.Seed, "seed", w.Seed, "master seed; stfuzz explores upward from it (0 = default)")
	fs.Float64Var(&w.MeasureMs, "measure-ms", w.MeasureMs, "virtual measurement window per run (ms, 0 = default)")
	fs.Float64Var(&w.WarmupMs, "warmup-ms", w.WarmupMs, "virtual warmup per run (ms, 0 = default)")
	return w
}

// CheckThreads reports an error naming -threads unless n is a thread
// count the simulated machine supports.
func CheckThreads(n int) error {
	if n < 1 || n > mem.MaxThreads {
		return fmt.Errorf("-threads: %d is not a thread count (want 1-%d)", n, mem.MaxThreads)
	}
	return nil
}

// ParseThreads parses stbench's comma-separated -threads list, checking
// each entry like a single -threads value; an empty value yields nil.
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, p := range SplitList(s) {
		n, err := strconv.Atoi(p)
		if err == nil {
			err = CheckThreads(n)
		}
		if err != nil {
			return nil, fmt.Errorf("-threads: bad list entry %q: want 1-%d", p, mem.MaxThreads)
		}
		out = append(out, n)
	}
	return out, nil
}

// Options checks the windows and applies them to o; a zero window keeps
// o's own.
func (w *Workload) Options(o bench.Options) (bench.Options, error) {
	o.Seed = w.Seed
	if w.MeasureMs > 0 {
		o.MeasureMs = w.MeasureMs
	}
	if w.WarmupMs > 0 {
		o.WarmupMs = w.WarmupMs
	}
	_, err := w.windows(bench.Config{})
	return o, err
}

// windows checks both windows and sets them on c in virtual cycles.
func (w *Workload) windows(c bench.Config) (bench.Config, error) {
	var err error
	if c.WarmupCycles, err = VirtualMs("warmup-ms", w.WarmupMs); err == nil {
		c.MeasureCycles, err = VirtualMs("measure-ms", w.MeasureMs)
	}
	return c, err
}

// Config checks the full flag set and builds the harness config it names.
func (w *Workload) Config() (bench.Config, error) {
	if !slices.Contains(bench.Structures, w.DS) {
		return bench.Config{}, fmt.Errorf("-ds: unknown structure %q (want %s)", w.DS, strings.Join(bench.Structures, "|"))
	}
	if _, ok := bench.CanonicalScheme(w.Scheme); !ok {
		return bench.Config{}, fmt.Errorf("-scheme: unknown scheme %q", w.Scheme)
	}
	if err := CheckThreads(w.Threads); err != nil {
		return bench.Config{}, err
	}
	if w.Initial < 0 {
		return bench.Config{}, fmt.Errorf("-initial: %d is not a structure size (want 0 or more)", w.Initial)
	}
	if w.Mutate < 0 || w.Mutate > 100 {
		return bench.Config{}, fmt.Errorf("-mutate: %d is not a percentage (want 0-100)", w.Mutate)
	}
	return w.windows(bench.Config{Structure: w.DS, Scheme: w.Scheme, Threads: w.Threads,
		Seed: w.Seed, InitialSize: w.Initial, MutatePct: w.Mutate})
}

// RunConfig is Config for stfuzz. The scheme keeps the spelling given:
// schedule artifacts and -resume fingerprints record it.
func (w *Workload) RunConfig() (explore.RunConfig, error) {
	c, err := w.Config()
	return explore.RunConfig{Structure: c.Structure, Scheme: c.Scheme, Threads: c.Threads, Seed: c.Seed,
		InitialSize: c.InitialSize, MutatePct: c.MutatePct,
		WarmupCycles: c.WarmupCycles, MeasureCycles: c.MeasureCycles}, err
}
