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
// configuration recorded in the snapshot, so it also loads a checkpoint
// written by stfuzz -snap-out; of the other flags only the observability
// toggles (-trace, -profile/-folded, -sanitize) apply:
//
//	stsim -scheme Epoch -checkpoint-at 10 -checkpoint-out run.stsnap
//	stsim -restore run.stsnap
//
// Bisect mode (-bisect) binary-searches virtual time for the first point
// a monotone oracle fails — a poison (use-after-free) read or a simulated
// crash — forking each probe from the latest known-clean checkpoint
// instead of re-running from t=0. Conservation and linearizability are
// whole-run oracles (they need the drain phase) and are judged at the end
// of the run as usual, not bisected. With -checkpoint-out, the last clean
// state is written for time-travel debugging:
//
//	stsim -scheme UnsafeFree -ds list -bisect -checkpoint-out clean.stsnap
package main

import (
	"flag"
	"fmt"
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
		checkpointOut = flag.String("checkpoint-out", "checkpoint.stsnap", "snapshot file written by -checkpoint-at / -bisect")
		restore       = flag.String("restore", "", "restore this snapshot, rebuilt from the configuration it records, and finish it")
		bisect        = flag.Bool("bisect", false, "binary-search virtual time for the first poison read or simulated crash")
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
		runBisect(cfg, *checkpointOut)
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
	case *checkpointAt > 0:
		var ses *bench.Session
		ses, err = bench.NewSession(cfg)
		if err != nil {
			break
		}
		if ses.RunToVTime(cost.FromSeconds(*checkpointAt / 1000)) {
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

// runBisect binary-searches virtual time for the first failure of a
// monotone oracle — a poison (use-after-free) read or a simulated crash —
// forking every probe from the latest known-clean snapshot instead of
// re-running from t=0. Exits 1 when a failure is found (its window and the
// last clean state are reported), 0 when the run is clean.
func runBisect(cfg bench.Config, outPath string) {
	// Base checkpoint at t=0, before any simulated work.
	base, err := bench.NewSession(cfg)
	if err != nil {
		fail(cli.ExitFailure, err)
	}
	loState, err := base.Snapshot()
	if err != nil {
		fail(cli.ExitFailure, err)
	}

	// Full probe: does a bisectable failure happen at all, and by when?
	probe, _, crashed, err := probeTo(cfg, loState, cost.Cycles(1)<<62)
	if err != nil {
		fail(cli.ExitFailure, err)
	}
	hi := probe.VTime()
	if !crashed && probe.UAFReads() == 0 {
		// Clean through the pausable run; finish it to see whether a
		// failure hides in the drain, beyond where a pause can land.
		res, err := probe.Finish()
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
	kind := "poison read"
	if crashed && probe.UAFReads() == 0 {
		kind = "simulated crash"
	}

	// Invariant: every step before vtime lo has executed cleanly (loState
	// holds a consistent paused state proving it) and the failure happens
	// at or before vtime hi. Every probe resumes from loState. A probe to
	// mid pauses once every thread's NEXT step lies at or past mid, so a
	// clean probe proves cleanliness below mid only, and a failing probe
	// bounds the failure by where it actually stopped, not by mid.
	var lo cost.Cycles
	probes := 1
	for hi-lo > 1 && probes < 64 {
		mid := lo + (hi-lo)/2
		ses, paused, crashed, err := probeTo(cfg, loState, mid)
		if err != nil {
			fail(cli.ExitFailure, err)
		}
		probes++
		if crashed || ses.UAFReads() > 0 {
			v := ses.VTime()
			if v >= hi {
				// The probe overran the whole window before it could
				// pause: the window is already at pause granularity.
				break
			}
			hi = v
			continue
		}
		lo = mid
		if !paused {
			break
		}
		st, err := ses.Snapshot()
		if err != nil {
			fail(cli.ExitFailure, err)
		}
		loState = st
	}

	fmt.Printf("stsim: bisect — first %s in vtime window (%.4f ms, %.4f ms] after %d probes\n",
		kind, cost.Seconds(lo)*1000, cost.Seconds(hi)*1000, probes)
	fmt.Printf("stsim: last clean state: decision %d, vtime %.4f ms\n",
		loState.Decisions(), cost.Seconds(lo)*1000)
	if outPath != "" {
		if err := snap.WriteFile(outPath, loState); err != nil {
			fail(cli.ExitFailure, err)
		}
		fmt.Printf("stsim: clean checkpoint written to %s — resume it with -restore to step into the failure\n", outPath)
	}
	cli.Exit(cli.ExitFailure)
}

// fail reports err and exits with code.
func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "stsim: %v\n", err)
	cli.Exit(code)
}

// probeTo forks a session from a snapshot and advances it to virtual time
// v, converting a simulated crash (allocator panic) into a flag.
func probeTo(cfg bench.Config, from *snap.State, v cost.Cycles) (ses *bench.Session, paused, crashed bool, err error) {
	ses, err = bench.SessionFromSnapshot(cfg, from)
	if err != nil {
		return nil, false, false, err
	}
	func() {
		defer func() {
			if recover() != nil {
				crashed = true
			}
		}()
		paused = ses.RunToVTime(v)
	}()
	return ses, paused, crashed, nil
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
