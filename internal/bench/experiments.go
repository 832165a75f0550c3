package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/topo"
)

// Options tunes an experiment sweep.
type Options struct {
	// Threads is the sweep's thread counts (default 1..16, the paper's
	// x-axis).
	Threads []int
	// MeasureMs / WarmupMs are the virtual phase durations per point.
	MeasureMs float64
	WarmupMs  float64
	Seed      uint64
	// Progress, if non-nil, receives one line per completed point.
	Progress io.Writer
	// Profile enables the virtual-cycle profiler on every point (fills
	// Result.Profile / Result.Folded; never changes simulated results).
	Profile bool
	// CheckEffects arms the effect-soundness oracle on every point
	// (fills Result.San.EffectViolations; never changes simulated
	// results).
	CheckEffects bool
	// NoScanElide disables dataflow-driven scan elision on every point:
	// scans walk every frame word and register as the seed did.
	// Experiments that own the ablation (E16) override it per variant.
	NoScanElide bool
	// Collect, if non-nil, observes every completed point as it finishes:
	// the series label (scheme or variant), the thread count, and the
	// full Result. The JSON exporter hooks in here.
	Collect func(series string, threads int, res *Result)
	// Ctx, if non-nil, cancels the sweep: between points always, and at
	// scheduling-decision boundaries inside a point via RunContext. The
	// sweep returns the context's error; points already collected stand.
	Ctx context.Context
}

// WithDefaults fills an Options with full-figure parameters.
func (o Options) WithDefaults() Options {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	}
	if o.MeasureMs == 0 {
		o.MeasureMs = 20
	}
	if o.WarmupMs == 0 {
		o.WarmupMs = 5
	}
	if o.Seed == 0 {
		o.Seed = 0x57ACC7AC4
	}
	return o
}

// QuickOptions returns a reduced sweep for tests.
func QuickOptions() Options {
	return Options{
		Threads:   []int{1, 2, 4, 8, 12, 16},
		MeasureMs: 4,
		WarmupMs:  1,
	}
}

func (o Options) cfg(structure, scheme string, threads int) Config {
	return Config{
		Structure:     structure,
		Scheme:        scheme,
		Threads:       threads,
		Seed:          o.Seed,
		WarmupCycles:  cost.FromSeconds(o.WarmupMs / 1000),
		MeasureCycles: cost.FromSeconds(o.MeasureMs / 1000),
		Profile:       o.Profile,
		CheckEffects:  o.CheckEffects,
		NoScanElide:   o.NoScanElide,
	}
}

func (o Options) collect(series string, threads int, res *Result) {
	if o.Collect != nil {
		o.Collect(series, threads, res)
	}
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// throughputSweep runs structure × schemes × threads and returns ops/sec.
func throughputSweep(structure string, schemes []string, o Options) (*Table, error) {
	tb := &Table{Cols: append([]string{"threads"}, schemes...)}
	for _, n := range o.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range schemes {
			res, err := RunContext(o.Ctx, o.cfg(structure, s, n))
			if err != nil {
				return nil, err
			}
			o.collect(s, n, res)
			row = append(row, f0(res.Throughput))
			o.progress("%s %s threads=%d: %.0f ops/s", structure, s, n, res.Throughput)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Figure1List regenerates Figure 1 (top): Harris list, 5K nodes, 20%
// mutations, all five schemes.
func Figure1List(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb, err := throughputSweep(StructList, []string{
		SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack, SchemeDTA,
	}, o)
	if err != nil {
		return nil, err
	}
	tb.Title = "Figure 1 (top) — List: 5K nodes, 20% mutations (ops/sec)"
	return tb, nil
}

// Figure1SkipList regenerates Figure 1 (bottom): skip list, 100K nodes.
func Figure1SkipList(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb, err := throughputSweep(StructSkipList, []string{
		SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack,
	}, o)
	if err != nil {
		return nil, err
	}
	tb.Title = "Figure 1 (bottom) — SkipList: 100K nodes, 20% mutations (ops/sec)"
	return tb, nil
}

// Figure2Queue regenerates Figure 2 (top): Michael-Scott queue.
func Figure2Queue(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb, err := throughputSweep(StructQueue, []string{
		SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack,
	}, o)
	if err != nil {
		return nil, err
	}
	tb.Title = "Figure 2 (top) — Queue: 20% mutations (ops/sec)"
	return tb, nil
}

// Figure2Hash regenerates Figure 2 (bottom): hash table, 10K nodes.
func Figure2Hash(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb, err := throughputSweep(StructHash, []string{
		SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack,
	}, o)
	if err != nil {
		return nil, err
	}
	tb.Title = "Figure 2 (bottom) — Hash: 10K nodes, 20% mutations (ops/sec)"
	return tb, nil
}

// listStackTrackSweep runs the list benchmark under StackTrack once per
// thread count (Figures 3 and 4 share it); results align with o.Threads.
func listStackTrackSweep(o Options) ([]*Result, error) {
	var out []*Result
	for _, n := range o.Threads {
		res, err := RunContext(o.Ctx, o.cfg(StructList, SchemeStackTrack, n))
		if err != nil {
			return nil, err
		}
		o.collect(SchemeStackTrack, n, res)
		o.progress("list StackTrack threads=%d: %.0f ops/s, %d conflict aborts, %d capacity aborts",
			n, res.Throughput, res.Mem.ConflictAborts, res.Mem.CapacityAborts)
		out = append(out, res)
	}
	return out, nil
}

// Figure3Aborts regenerates Figure 3: HTM contention and capacity aborts in
// the list benchmark. Totals are per measurement window; the paper plots
// per-run averages, so shapes (not magnitudes) are comparable.
func Figure3Aborts(o Options) (*Table, error) {
	o = o.WithDefaults()
	results, err := listStackTrackSweep(o)
	if err != nil {
		return nil, err
	}
	tb := &Table{
		Title: "Figure 3 — List: HTM contention and capacity aborts",
		Note:  "preempt and explicit aborts are shown separately; the paper folds them into hardware aborts",
		Cols:  []string{"threads", "contention", "capacity", "preempt", "explicit", "aborts/1Ksegments"},
	}
	for i, res := range results {
		perSeg := 0.0
		if res.Core.Segments > 0 {
			perSeg = 1000 * float64(res.Mem.Aborts()) / float64(res.Core.Segments)
		}
		tb.AddRow(fmt.Sprintf("%d", o.Threads[i]),
			fmt.Sprintf("%d", res.Mem.ConflictAborts),
			fmt.Sprintf("%d", res.Mem.CapacityAborts),
			fmt.Sprintf("%d", res.Mem.PreemptAborts),
			fmt.Sprintf("%d", res.Mem.ExplicitAborts),
			f2(perSeg))
	}
	return tb, nil
}

// Figure4Splits regenerates Figure 4: average splits per operation and
// average split (segment) lengths in the list benchmark.
func Figure4Splits(o Options) (*Table, error) {
	o = o.WithDefaults()
	results, err := listStackTrackSweep(o)
	if err != nil {
		return nil, err
	}
	tb := &Table{
		Title: "Figure 4 — List: HTM splits per operation and split lengths",
		Cols:  []string{"threads", "splits/op", "avgSplitLen", "predictorLimit"},
	}
	for i, res := range results {
		ops := res.Core.OpsFast + res.Core.OpsSlow
		splitsPerOp, avgLen := 0.0, 0.0
		if ops > 0 {
			splitsPerOp = float64(res.Core.Segments) / float64(ops)
		}
		if res.Core.Segments > 0 {
			avgLen = float64(res.Core.SegmentBlocks) / float64(res.Core.Segments)
		}
		tb.AddRow(fmt.Sprintf("%d", o.Threads[i]), f2(splitsPerOp), f2(avgLen), f2(res.AvgSegmentLimit))
	}
	return tb, nil
}

// Figure5SlowPath regenerates Figure 5: relative skip-list throughput with
// 0/10/50/100% of operations forced onto the slow path.
func Figure5SlowPath(o Options) (*Table, error) {
	o = o.WithDefaults()
	pcts := []int{0, 10, 50, 100}
	tb := &Table{
		Title: "Figure 5 — SkipList: slow-path fallback impact (relative to 0% slow)",
		Cols:  []string{"threads", "Slow-0", "Slow-10", "Slow-50", "Slow-100"},
	}
	for _, n := range o.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		var base float64
		for _, pct := range pcts {
			cfg := o.cfg(StructSkipList, SchemeStackTrack, n)
			cfg.Core.ForceSlowPct = pct
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			if pct == 0 {
				base = res.Throughput
			}
			rel := 0.0
			if base > 0 {
				rel = 100 * res.Throughput / base
			}
			o.collect(fmt.Sprintf("Slow-%d", pct), n, res)
			row = append(row, fmt.Sprintf("%.1f%%", rel))
			o.progress("skiplist slow=%d%% threads=%d: %.0f ops/s", pct, n, res.Throughput)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// TableScanStats regenerates the paper's scan-behaviour statistics (§6
// "Scan behavior"): skip-list runs with a scan every 1 vs every 10 frees,
// reporting throughput, scan counts, average inspected stack depth, and the
// scan's share of total cycles.
func TableScanStats(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb := &Table{
		Title: "Scan statistics — SkipList (scan every 1 vs 10 frees)",
		Cols: []string{"threads",
			"ops/s(F1)", "scans(F1)", "depth(F1)", "penalty%(F1)",
			"ops/s(F10)", "scans(F10)", "depth(F10)", "penalty%(F10)"},
	}
	for _, n := range o.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, every := range []int{1, 10} {
			cfg := o.cfg(StructSkipList, SchemeStackTrack, n)
			cfg.Core.MaxFree = every
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			o.collect(fmt.Sprintf("F%d", every), n, res)
			depth := 0.0
			if res.Core.ScanTargets > 0 {
				depth = float64(res.Core.ScannedDepth) / float64(res.Core.ScanTargets)
			}
			// Scan cycles ≈ words inspected × (load + compare cost),
			// as a share of all cycles burned by all threads.
			scanCycles := float64(res.Core.ScannedWords) * float64(cost.Load+cost.ScanWord)
			total := float64(n) * float64(res.Config.MeasureCycles)
			penalty := 100 * scanCycles / total
			row = append(row, f0(res.Throughput),
				fmt.Sprintf("%d", res.Core.Scans), f2(depth), f2(penalty))
			o.progress("skiplist scanevery=%d threads=%d: %.0f ops/s scans=%d", every, n, res.Throughput, res.Core.Scans)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// AblationScan compares the paper's per-pointer SCAN_AND_FREE against the
// §5.2 hashed-scan optimization under scan-heavy settings (a scan per
// free). The paper reports the optimization "did not give a significant
// performance advantage" at its amortization level; this reproduces that
// comparison and makes the crossover measurable.
func AblationScan(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb := &Table{
		Title: "Ablation — SCAN_AND_FREE strategy (skip list, 64-node free batches)",
		Note:  "per-ptr = Algorithm 1 as written (one pass per pointer); hashed = §5.2 one-pass optimization",
		Cols: []string{"threads",
			"ops/s(per-ptr)", "words/scan(per-ptr)",
			"ops/s(hashed)", "words/scan(hashed)"},
	}
	for _, n := range o.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, hashed := range []bool{false, true} {
			cfg := o.cfg(StructSkipList, SchemeStackTrack, n)
			cfg.Core.MaxFree = 64
			cfg.Core.HashedScan = hashed
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			variant := "per-ptr"
			if hashed {
				variant = "hashed"
			}
			o.collect(variant, n, res)
			perScan := 0.0
			if res.Core.Scans > 0 {
				perScan = float64(res.Core.ScannedWords) / float64(res.Core.Scans)
			}
			row = append(row, f0(res.Throughput), f2(perScan))
			o.progress("ablation-scan hashed=%v threads=%d: %.0f ops/s", hashed, n, res.Throughput)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// AblationPredictor compares the paper's additive ±1 split-length policy
// against an AIMD variant (§7 calls improved segmentation future work).
func AblationPredictor(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb := &Table{
		Title: "Ablation — split-length predictor policy (list)",
		Cols: []string{"threads",
			"ops/s(additive)", "len(additive)",
			"ops/s(aimd)", "len(aimd)"},
	}
	for _, n := range o.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, policy := range []string{core.PredictorAdditive, core.PredictorAIMD} {
			cfg := o.cfg(StructList, SchemeStackTrack, n)
			cfg.Core.Predictor = policy
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			o.collect(policy, n, res)
			avgLen := 0.0
			if res.Core.Segments > 0 {
				avgLen = float64(res.Core.SegmentBlocks) / float64(res.Core.Segments)
			}
			row = append(row, f0(res.Throughput), f2(avgLen))
			o.progress("ablation-predictor %s threads=%d: %.0f ops/s", policy, n, res.Throughput)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// AblationScanElide measures the dataflow scan-elision win (E16): the
// list benchmark under StackTrack with a scan per free (the scan-heavy
// regime of TableScanStats), comparing the per-operation track masks from
// the pointer-taint/liveness pass against the paper's full stack+register
// scan. "scanned" counts candidate words actually inspected; "elided"
// counts words the masks proved never hold a live heap pointer.
func AblationScanElide(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb := &Table{
		Title: "Ablation — dataflow scan elision (list, scan per free)",
		Note:  "elide = per-op track masks from internal/prog/dataflow; full = every stack word and register",
		Cols: []string{"threads",
			"ops/s(elide)", "scanned(elide)", "elided",
			"ops/s(full)", "scanned(full)", "saved%"},
	}
	for _, n := range o.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		var scannedElide uint64
		for _, off := range []bool{false, true} {
			cfg := o.cfg(StructList, SchemeStackTrack, n)
			cfg.Core.MaxFree = 1
			cfg.NoScanElide = off
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			variant := "elide"
			if off {
				variant = "full"
			}
			o.collect(variant, n, res)
			if off {
				saved := 0.0
				if res.Core.ScannedWords > 0 {
					saved = 100 * (1 - float64(scannedElide)/float64(res.Core.ScannedWords))
				}
				row = append(row, f0(res.Throughput),
					fmt.Sprintf("%d", res.Core.ScannedWords), fmt.Sprintf("%.1f%%", saved))
			} else {
				scannedElide = res.Core.ScannedWords
				row = append(row, f0(res.Throughput),
					fmt.Sprintf("%d", res.Core.ScannedWords),
					fmt.Sprintf("%d", res.Core.ElidedWords))
			}
			o.progress("ablation-scanelide %s threads=%d: %.0f ops/s scanned=%d", variant, n, res.Throughput, res.Core.ScannedWords)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// ExtensionSchemes compares every reclamation scheme — including reference
// counting, which the paper surveys but does not plot ("hazard pointers can
// be seen as an upper bound on the performance of reference-counting
// techniques") — on the list benchmark. RefCount landing below Hazards
// validates that upper-bound claim in our cost model.
func ExtensionSchemes(o Options) (*Table, error) {
	o = o.WithDefaults()
	tb, err := throughputSweep(StructList, []string{
		SchemeOriginal, SchemeDTA, SchemeEpoch, SchemeStackTrack,
		SchemeHazards, SchemeRefCount,
	}, o)
	if err != nil {
		return nil, err
	}
	tb.Title = "Extension — all reclamation schemes on the list (ops/sec)"
	tb.Note = "the paper treats Hazards as an upper bound on RefCount"
	return tb, nil
}

// ExtensionCrash reproduces the paper's thread-crash failure mode (§1:
// "a thread crash can result in an unbounded amount of unreclaimed
// memory" for quiescence schemes): one thread is killed mid-operation
// after warmup, then the survivors run the list workload. Epoch waits on
// the dead thread's timestamp forever — reclamation and, with it, the
// reclaiming threads stall; the non-blocking schemes keep only the dead
// thread's pinned references alive.
func ExtensionCrash(o Options) (*Table, error) {
	o = o.WithDefaults()
	schemes := []string{SchemeEpoch, SchemeHazards, SchemeDTA, SchemeStackTrack}
	tb := &Table{
		Title: "Extension — one thread crashed mid-operation (list)",
		Note:  "unreclaimed = objects beyond the structure's membership after drain",
		Cols: []string{"threads",
			"ops/s(Epoch)", "unreclaimed(Epoch)",
			"ops/s(Hazards)", "unreclaimed(Hazards)",
			"ops/s(DTA)", "unreclaimed(DTA)",
			"ops/s(StackTrack)", "unreclaimed(StackTrack)"},
	}
	for _, n := range o.Threads {
		if n < 2 {
			continue // need a survivor and a victim
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range schemes {
			cfg := o.cfg(StructList, s, n)
			cfg.CrashThreads = 1
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			o.collect(s, n, res)
			row = append(row, f0(res.Throughput), fmt.Sprintf("%d", res.LeakedObjects+uint64(res.PendingFrees)))
			o.progress("crash %s threads=%d: %.0f ops/s, %d unreclaimed", s, n, res.Throughput, res.LeakedObjects)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// ExtensionBigMachine tests the paper's closing prediction (§7: "these
// results lead us to believe that our scheme has the potential to scale
// well on HTM systems with higher numbers of cores"): the skip-list
// benchmark on a simulated 16-core × 2-HT machine, threads 1–32.
func ExtensionBigMachine(o Options) (*Table, error) {
	o = o.WithDefaults()
	big := topo.Haswell8Way()
	big.Cores = 16
	schemes := []string{SchemeOriginal, SchemeHazards, SchemeEpoch, SchemeStackTrack}
	tb := &Table{
		Title: "Extension — 16-core × 2-HT machine, skip list (§7's scaling prediction)",
		Cols:  append([]string{"threads"}, schemes...),
	}
	for _, n := range BigMachineThreads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range schemes {
			cfg := o.cfg(StructSkipList, s, n)
			cfg.Topology = big
			res, err := RunContext(o.Ctx, cfg)
			if err != nil {
				return nil, err
			}
			o.collect(s, n, res)
			row = append(row, f0(res.Throughput))
			o.progress("bigmachine %s threads=%d: %.0f ops/s", s, n, res.Throughput)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// BigMachineThreads is E10's fixed thread axis: the extension sweeps a
// larger simulated machine than the default 1..16 x-axis covers.
var BigMachineThreads = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32}

// Experiment is one registered experiment: a long name, a short stable ID
// (used for baseline filenames like BENCH_E1a.json), an optional extra
// alias, and the runner.
type Experiment struct {
	Name  string
	ID    string
	Alias string
	Run   func(Options) (*Table, error)
}

// Experiments lists the paper's figures and tables in order, then the
// ablations of design choices.
var Experiments = []Experiment{
	{Name: "figure1-list", ID: "E1a", Alias: "fig1-list", Run: Figure1List},
	{Name: "figure1-skiplist", ID: "E1b", Alias: "fig1-skiplist", Run: Figure1SkipList},
	{Name: "figure2-queue", ID: "E2a", Alias: "fig2-queue", Run: Figure2Queue},
	{Name: "figure2-hash", ID: "E2b", Alias: "fig2-hash", Run: Figure2Hash},
	{Name: "figure3-aborts", ID: "E3", Alias: "fig3-aborts", Run: Figure3Aborts},
	{Name: "figure4-splits", ID: "E4", Alias: "fig4-splits", Run: Figure4Splits},
	{Name: "figure5-slowpath", ID: "E5", Alias: "fig5-slowpath", Run: Figure5SlowPath},
	{Name: "table-scanstats", ID: "E6", Alias: "scanstats", Run: TableScanStats},
	{Name: "ablation-scan", ID: "E8a", Run: AblationScan},
	{Name: "ablation-predictor", ID: "E8b", Run: AblationPredictor},
	{Name: "extension-schemes", ID: "E8c", Run: ExtensionSchemes},
	{Name: "extension-crash", ID: "E9", Run: ExtensionCrash},
	{Name: "extension-bigmachine", ID: "E10", Run: ExtensionBigMachine},
	{Name: "ablation-scanelide", ID: "E16", Alias: "scanelide", Run: AblationScanElide},
}

// FindExperiment resolves a user-supplied name against every experiment's
// Name, ID, and Alias (case-insensitively). It returns nil when nothing
// matches.
func FindExperiment(name string) *Experiment {
	for i := range Experiments {
		e := &Experiments[i]
		if strings.EqualFold(name, e.Name) || strings.EqualFold(name, e.ID) ||
			(e.Alias != "" && strings.EqualFold(name, e.Alias)) {
			return e
		}
	}
	return nil
}

// Describe renders one inventory line: long name, ID, optional alias.
func (e *Experiment) Describe() string {
	if e.Alias != "" {
		return fmt.Sprintf("%-22s %-4s %s", e.Name, e.ID, e.Alias)
	}
	return fmt.Sprintf("%-22s %s", e.Name, e.ID)
}

// ExperimentInventory lists every registered experiment, one Describe
// line each, in registration (paper) order — the `-list` output, also
// embedded in unknown-name errors so a typo never fails bare.
func ExperimentInventory() []string {
	out := make([]string, len(Experiments))
	for i := range Experiments {
		out[i] = (&Experiments[i]).Describe()
	}
	return out
}

// SuggestExperiments returns the experiments whose name, ID, or alias
// is a near miss for name: the query is a prefix or substring of the
// identifier, or the identifier a prefix of the query (case-insensitive).
// An exact match resolves via FindExperiment and is not a suggestion.
func SuggestExperiments(name string) []*Experiment {
	q := strings.ToLower(name)
	if q == "" {
		return nil
	}
	var out []*Experiment
	for i := range Experiments {
		e := &Experiments[i]
		if FindExperiment(name) == e {
			continue
		}
		for _, id := range []string{e.Name, e.ID, e.Alias} {
			if id == "" {
				continue
			}
			id = strings.ToLower(id)
			if strings.Contains(id, q) || strings.HasPrefix(q, id) {
				out = append(out, e)
				break
			}
		}
	}
	return out
}
