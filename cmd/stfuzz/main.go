// Command stfuzz explores schedules of the simulated reclamation schemes
// looking for oracle violations: poison (use-after-free) reads, conservation
// breaks, simulated crashes, linearizability failures, and — with
// -check-races — sanitizer findings (vector-clock data races and
// shadow-memory use-after-free/redzone faults, reported at the faulting
// access). It is the command-line front end to internal/explore.
//
// Explore mode (default) fans host workers out over workload seeds under a
// wall-clock/run budget and stops at the first failing schedule:
//
//	stfuzz -ds skiplist -scheme hp -strategy pct -depth 3 -budget 30s -workers 4
//
// With -fork-heap the campaign instead fixes the workload seed, warms one
// heap to the warmup boundary, checkpoints it (internal/snap), and forks
// that snapshot across strategy seeds — every run skips the warmup. With
// -resume FILE progress persists across invocations: completed seeds are
// never redone, and seeds claimed by an interrupted campaign are re-issued.
//
// A failure is reported as a narrative and can be written out as a schedule
// artifact (-out crash.schedule), optionally ddmin-minimized first
// (-minimize). Replay mode re-runs a saved artifact from a cold start
// instead of exploring:
//
//	stfuzz -replay crash.schedule -minimize
//
// SIGINT/SIGTERM cancel cooperatively: the campaign stops at the next
// run boundary, progress (-resume) is saved, and the partial summary is
// still printed.
//
// Exit status: 0 when no failure was found, 1 when one was (inverted by
// -expect-failure, for CI jobs that assert a seeded bug is caught), 2 on
// configuration errors, 130 when interrupted before any verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stacktrack/internal/cli"
	"stacktrack/internal/explore"
)

func main() {
	wl := cli.WorkloadFlags(flag.CommandLine, cli.FuzzDefaults)
	var (
		keyrange = flag.Uint64("keyrange", 0, "key range (0 = 2x initial)")

		strategy   = flag.String("strategy", explore.StrategyRandom, "scheduling strategy: vtime|random|pct")
		depth      = flag.Int("depth", 0, "PCT depth d (0 = default)")
		checkLin   = flag.Bool("check-lin", false, "enable the per-key linearizability oracle")
		checkRaces = flag.Bool("check-races", false, "enable the sanitizer and its race oracle (vector-clock races, shadow-memory UAF)")
		checkEff   = flag.Bool("check-effects", false, "enable the effect-soundness oracle (declared Reads/Writes/LoadsPtr/Kills vs executed accesses)")

		budget  = flag.Duration("budget", 30*time.Second, "wall-clock exploration budget")
		maxRuns = flag.Int("max-runs", 0, "stop after this many runs (0 = unlimited)")
		workers = flag.Int("workers", 1, "parallel exploration workers (0 = GOMAXPROCS)")

		forkHeap = flag.Bool("fork-heap", false, "fork one warmed-up heap across strategy seeds (fixed workload seed)")
		resume   = flag.String("resume", "", "persist campaign progress to this file and resume from it")

		replay     = flag.String("replay", "", "replay this schedule artifact instead of exploring")
		minimize   = flag.Bool("minimize", false, "ddmin-minimize the failing schedule before reporting")
		out        = flag.String("out", "", "write the (minimized) failing schedule to this file")
		traceTail  = flag.Int("trace", 48, "events of trace tail in the failure narrative")
		expectFail = flag.Bool("expect-failure", false, "exit 0 iff a failure WAS found (CI seeded-bug jobs)")
	)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, perr := prof.Start()
	if perr != nil {
		fatal(perr)
	}
	defer stopProf()

	if *replay != "" {
		log, err := explore.LoadLog(*replay)
		if err != nil {
			fatal(err)
		}
		report(finish(log, *minimize, *out, *traceTail), *expectFail)
		return
	}

	cfg, err := wl.RunConfig()
	if err != nil {
		fatal(err)
	}
	cfg.KeyRange = *keyrange
	cfg.Strategy, cfg.Depth = *strategy, *depth
	cfg.CheckLin, cfg.CheckRaces, cfg.CheckEffects = *checkLin, *checkRaces, *checkEff

	var prog *explore.SeedProgress
	if *resume != "" {
		prog, err = explore.LoadSeedProgress(*resume, cfg, *forkHeap)
		if err != nil {
			fatal(err)
		}
		if done := prog.Completed(); done > 0 {
			fmt.Printf("stfuzz: resuming campaign with %d runs already completed\n", done)
		}
	}

	ctx, cancel := cli.SignalContext()
	defer cancel()

	campaign, mode := explore.Explore, "seed sweep"
	if *forkHeap {
		campaign, mode = explore.ExploreForkHeap, "fork-heap"
	}
	res, err := campaign(ctx, cfg, *workers, explore.Budget{Wall: *budget, MaxRuns: *maxRuns}, prog)
	if prog != nil {
		if serr := prog.Save(); serr != nil {
			fmt.Fprintf(os.Stderr, "stfuzz: saving progress: %v\n", serr)
		}
	}
	if err != nil {
		fatal(err)
	}
	rate := float64(res.Runs) / res.Elapsed.Seconds()
	fmt.Printf("stfuzz: %d runs in %.1fs (%.0f runs/s, %d workers, strategy %s, %s)\n",
		res.Runs, res.Elapsed.Seconds(), rate, res.Workers, *strategy, mode)
	if res.Failure == nil {
		if ctx.Err() != nil {
			// Interrupted without a verdict: completed runs (and any
			// -resume progress) are flushed above; the exit code says the
			// campaign did not run to completion.
			fmt.Println("stfuzz: interrupted; campaign incomplete")
			cli.Exit(cli.ExitInterrupted)
		}
		fmt.Println("stfuzz: no oracle violations found")
		report(false, *expectFail)
		return
	}
	fmt.Printf("stfuzz: seed %d fails: %s\n\n", res.Failure.Seed, res.Failure.Verdict)
	report(finish(res.Failure.Log, *minimize, *out, *traceTail), *expectFail)
}

// finish minimizes (optionally), narrates, and saves a schedule log.
// It reports whether the log still fails.
func finish(log *explore.Log, minimize bool, out string, tail int) bool {
	if minimize {
		min, err := explore.Minimize(log, explore.MinimizeOptions{
			SameOracle: true,
			Progress: func(runs, size int) {
				fmt.Fprintf(os.Stderr, "stfuzz: ddmin %d runs, %d decisions left\n", runs, size)
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stfuzz: ddmin %d -> %d decisions in %d runs (1-minimal: %v)\n\n",
			min.FromDecisions, min.ToDecisions, min.Runs, min.OneMinimal)
		log = min.Log
	}
	outc, err := explore.Narrate(os.Stdout, log, tail)
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := log.WriteFile(out); err != nil {
			fatal(err)
		}
		fmt.Printf("\nstfuzz: schedule written to %s\n", out)
	}
	return outc.Verdict.Failed
}

// report exits with the conventional status: failures are exit 1, unless
// the caller asserted a seeded bug must be found (-expect-failure).
func report(failed, expectFail bool) {
	if expectFail && !failed {
		fmt.Fprintln(os.Stderr, "stfuzz: expected a failure, found none")
	}
	if failed != expectFail {
		cli.Exit(cli.ExitFailure)
	}
	cli.Exit(cli.ExitOK)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stfuzz: %v\n", err)
	cli.Exit(cli.ExitUsage)
}
