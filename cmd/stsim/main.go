// Command stsim runs a single benchmark configuration on the simulated
// machine and prints a detailed report: throughput, operation outcomes,
// transactional-memory events, StackTrack internals, and memory hygiene.
// It is the inspection companion to cmd/stbench's sweeps.
//
// Usage:
//
//	stsim -ds skiplist -scheme StackTrack -threads 8 -measure-ms 20
//
// Checkpoint/restore (internal/snap): -checkpoint-at V pauses the run at
// virtual time V ms, writes a snapshot (-checkpoint-out), and continues to
// the normal report. -restore resumes a snapshot and finishes it —
// bit-identical to the uninterrupted run. The run is rebuilt from the
// configuration recorded in the snapshot; of the other flags only the
// observability toggles (-trace, -profile/-folded, -sanitize) apply:
//
//	stsim -scheme Epoch -checkpoint-at 10 -checkpoint-out run.stsnap
//	stsim -restore run.stsnap
//
// Bisect mode (-bisect) finds the first failure of a monotone oracle — a
// poison (use-after-free) read or a simulated crash — in one run and
// reports its scheduling decision. The run is deterministic, so a second
// run paused just before that decision is the last clean state; with
// -checkpoint-out it is written for time-travel debugging. Conservation
// and linearizability are whole-run oracles (they need the drain phase)
// and are judged at the end of the run as usual:
//
//	stsim -scheme UnsafeFree -ds list -bisect -checkpoint-out clean.stsnap
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"stacktrack/internal/bench"
	"stacktrack/internal/cli"
	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/metrics"
	"stacktrack/internal/snap"
)

func main() {
	wl := cli.WorkloadFlags(flag.CommandLine, cli.SimDefaults)
	var (
		maxFree  = flag.Int("scan-every", 0, "free-set size triggering a scan (0 = paper's 10)")
		traceN   = flag.Int("trace", 0, "record and print up to N simulation events")
		profile  = flag.Bool("profile", false, "attribute virtual cycles to phases and print the breakdown")
		sanitize = flag.Bool("sanitize", false, "enable the dynamic sanitizer (vector-clock races, shadow-memory UAF) and print its report")
		checkEff = flag.Bool("check-effects", false, "check executed register/frame accesses against each block's declared effects")
		noElide  = flag.Bool("no-scan-elide", false, "disable dataflow-driven scan elision (scan every frame word and register)")
		lint     = flag.Bool("lint", false, "statically verify every compiled operation's IR and exit")
		dataflow = flag.Bool("dataflow", false, "with -lint: print each operation's pointer-taint/liveness facts and scan track mask; fail on fact-free ops")
		folded   = flag.String("folded", "", "write folded stacks (flamegraph.pl input) to this file; implies -profile")

		checkpointAt  = flag.Float64("checkpoint-at", 0, "checkpoint at this virtual time (ms), then continue")
		checkpointOut = flag.String("checkpoint-out", "checkpoint.stsnap", "snapshot file written by -checkpoint-at, and by -bisect only when given")
		restore       = flag.String("restore", "", "restore this snapshot, rebuilt from the configuration it records, and finish it")
		bisect        = flag.Bool("bisect", false, "report the decision of the first poison read or simulated crash, and the clean state before it")
	)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, perr := prof.Start()
	if perr != nil {
		fail(cli.ExitUsage, perr)
	}
	defer stopProf()

	if *lint {
		cli.Exit(runLint(*dataflow))
	}

	cfg, err := wl.Config()
	var at cost.Cycles
	switch {
	case err != nil:
	case *maxFree < 0:
		err = fmt.Errorf("-scan-every: %d is not a free-set size (want 0 or more)", *maxFree)
	case *traceN < 0:
		err = fmt.Errorf("-trace: %d is not an event count (want 0 or more)", *traceN)
	default:
		at, err = cli.VirtualMs("checkpoint-at", *checkpointAt)
	}
	if err != nil {
		fail(cli.ExitUsage, err)
	}
	cfg.Validate = true
	cfg.TraceEvents = *traceN
	cfg.Profile = *profile || *folded != ""
	cfg.Sanitize = *sanitize
	cfg.CheckEffects = *checkEff
	cfg.NoScanElide = *noElide
	cfg.Core.MaxFree = *maxFree

	var res *bench.Result
	switch {
	case *bisect:
		out := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint-out" {
				out = *checkpointOut
			}
		})
		runBisect(cfg, out)
		return
	case *restore != "":
		var st *snap.State
		st, err = snap.ReadFile(*restore)
		if err != nil {
			break
		}
		var rcfg bench.Config
		if rcfg, err = bench.SnapshotConfig(st); err != nil {
			break
		}
		rcfg.TraceEvents, rcfg.Profile, rcfg.Sanitize = cfg.TraceEvents, cfg.Profile, cfg.Sanitize
		var ses *bench.Session
		ses, err = bench.SessionFromSnapshot(rcfg, st)
		if err != nil {
			break
		}
		fmt.Printf("stsim: restored %s at decision %d; finishing the run\n\n", *restore, st.Decisions())
		res, err = ses.Finish()
	case at > 0:
		var ses *bench.Session
		ses, err = bench.NewSession(cfg)
		if err != nil {
			break
		}
		if ses.RunToVTime(at) {
			var st *snap.State
			st, err = ses.Snapshot()
			if err != nil {
				break
			}
			if err = snap.WriteFile(*checkpointOut, st); err != nil {
				break
			}
			fmt.Printf("stsim: checkpoint written to %s (decision %d, vtime %.3f ms)\n\n",
				*checkpointOut, st.Decisions(), cost.Seconds(ses.VTime())*1000)
		} else {
			fmt.Fprintf(os.Stderr, "stsim: run ended before vtime %.3f ms; no checkpoint written\n", *checkpointAt)
		}
		res, err = ses.Finish()
	default:
		res, err = bench.Run(cfg)
	}
	if err != nil {
		fail(cli.ExitFailure, err)
	}
	report(res)
	if res.San != nil {
		fmt.Printf("\n%s\n", res.San)
	}
	if res.Profile != nil {
		reportProfile(res.Profile)
	}
	if *folded != "" {
		if err := os.WriteFile(*folded, []byte(res.Folded), 0o644); err != nil {
			fail(cli.ExitFailure, err)
		}
		fmt.Printf("\nfolded stacks written to %s (feed to flamegraph.pl)\n", *folded)
	}
	if res.Trace != nil {
		fmt.Printf("\ntrace (%d events", res.Trace.Len())
		if res.Trace.Dropped() > 0 {
			fmt.Printf(", %d dropped", res.Trace.Dropped())
		}
		fmt.Println(")")
		if err := res.Trace.Dump(os.Stdout); err != nil {
			fail(cli.ExitFailure, err)
		}
	}
}

// runBisect finds the first failure of a monotone oracle — a poison
// (use-after-free) read or a simulated crash — in one run, then runs a
// fresh session to just before its decision: the last clean state, written
// to outPath when it is set. Exits 1 when a failure is found, 0 when the
// run is clean.
func runBisect(cfg bench.Config, outPath string) {
	ses, err := bench.NewSession(cfg)
	if err != nil {
		fail(cli.ExitFailure, err)
	}
	crashed := crashes(ses)
	n, found := ses.FirstUAF()
	kind := "poison read"
	if crashed && !found {
		// The crash happened during the step of the last decision made.
		n, found, kind = ses.Decisions()-1, true, "simulated crash"
	}
	if !found {
		// Clean through the pausable run; finish it to see whether a
		// failure hides in the drain, beyond where a pause can land.
		res, err := ses.Finish()
		if err != nil {
			fail(cli.ExitFailure, err)
		}
		if res.UAFReads > 0 {
			fmt.Printf("stsim: bisect — all %d poison reads occur in the drain phase, beyond the pausable horizon; nothing to bisect\n", res.UAFReads)
			cli.Exit(cli.ExitFailure)
		}
		fmt.Println("stsim: bisect — no poison read or simulated crash in this run")
		return
	}
	if ses, err = bench.NewSession(cfg); err != nil {
		fail(cli.ExitFailure, err)
	}
	ses.RunToDecision(n)
	fmt.Printf("stsim: bisect — first %s at decision %d (vtime %.4f ms)\n",
		kind, n, cost.Seconds(ses.VTime())*1000)
	if outPath != "" {
		st, err := ses.Snapshot()
		if err == nil {
			err = snap.WriteFile(outPath, st)
		}
		if err != nil {
			fail(cli.ExitFailure, err)
		}
		fmt.Printf("stsim: clean state before it written to %s — resume it with -restore to step into the failure\n", outPath)
	}
	cli.Exit(cli.ExitFailure)
}

// crashes runs the session to the end of its measurement window and
// reports whether a simulated crash (allocator panic) stopped it first.
func crashes(ses *bench.Session) (crashed bool) {
	defer func() { crashed = recover() != nil }()
	ses.RunToDecision(math.MaxUint64)
	return
}

// fail reports err and exits with code.
func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "stsim: %v\n", err)
	cli.Exit(code)
}

// reportProfile prints the virtual-cycle phase breakdown, largest first.
func reportProfile(p *metrics.ProfileSummary) {
	fmt.Println("\nvirtual-cycle profile")
	for _, ph := range p.TopPhases() {
		pct := 0.0
		if p.TotalCycles > 0 {
			pct = 100 * float64(ph.Cycles) / float64(p.TotalCycles)
		}
		fmt.Printf("  %14d cycles  %5.1f%%  %s\n", ph.Cycles, pct, ph.Name)
	}
	fmt.Printf("  %14d cycles total attributed\n", p.TotalCycles)
}

func report(r *bench.Result) {
	c := r.Config
	fmt.Printf("stsim — %s / %s, %d threads, %.4g ms measured (seed %#x)\n\n",
		c.Structure, c.Scheme, c.Threads, cost.Seconds(c.MeasureCycles)*1000, c.Seed)

	fmt.Println("throughput")
	fmt.Printf("  %14.0f ops/sec (%d ops in the window)\n", r.Throughput, r.Ops)
	fmt.Printf("  %14d hits   %d inserts   %d deletes (successful, measured window)\n",
		r.Hits, r.SuccInserts, r.SuccDeletes)

	fmt.Println("\ntransactional memory")
	m := r.Mem
	fmt.Printf("  %14d transactions begun, %d committed\n", m.TxBegins, m.Commits)
	fmt.Printf("  %14d conflict aborts\n  %14d capacity aborts\n  %14d preempt aborts\n  %14d explicit aborts\n",
		m.ConflictAborts, m.CapacityAborts, m.PreemptAborts, m.ExplicitAborts)
	fmt.Printf("  %14d coherence misses (%d tx reads, %d tx writes, %d plain reads, %d plain writes)\n",
		m.CoherenceMisses, m.TxReads, m.TxWrites, m.PlainReads, m.PlainWrites)

	if c.Scheme == bench.SchemeStackTrack {
		s := r.Core
		ops := s.OpsFast + s.OpsSlow
		fmt.Println("\nstacktrack")
		fmt.Printf("  %14d segments committed", s.Segments)
		if ops > 0 {
			fmt.Printf(" (%.2f splits/op)", float64(s.Segments)/float64(ops))
		}
		fmt.Println()
		if s.Segments > 0 {
			fmt.Printf("  %14.2f blocks average segment length (predictor at %.2f)\n",
				float64(s.SegmentBlocks)/float64(s.Segments), r.AvgSegmentLimit)
		}
		fmt.Printf("  %14d fast-path ops, %d slow-path ops\n", s.OpsFast, s.OpsSlow)
		fmt.Printf("  %14d scans (%d restarts), %d words inspected\n",
			s.Scans, s.ScanRestarts, s.ScannedWords)
		if s.ScanTargets > 0 {
			fmt.Printf("  %14.2f average stack depth per inspection\n",
				float64(s.ScannedDepth)/float64(s.ScanTargets))
		}
		fmt.Printf("  %14d retired, %d freed, %d deferred by live references\n",
			s.Frees, s.Freed, s.FalseHeld)

		fmt.Println("\nsegment length distribution (blocks)")
		var maxN uint64
		for _, n := range s.SegLenHist {
			if n > maxN {
				maxN = n
			}
		}
		for b, n := range s.SegLenHist {
			if maxN == 0 {
				break
			}
			bar := strings.Repeat("#", int(40*n/maxN))
			fmt.Printf("  %7s %10d %s\n", core.HistLabel(b), n, bar)
		}
	}

	fmt.Println("\nmemory hygiene (after drain)")
	fmt.Printf("  %14d final elements\n", r.FinalCount)
	fmt.Printf("  %14d live objects, %d leaked, %d frees still pending\n",
		r.LiveObjects, r.LeakedObjects, r.PendingFrees)
	fmt.Printf("  %14d use-after-free reads\n", r.UAFReads)
}
