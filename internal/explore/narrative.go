package explore

// Counterexample narratives: render a (typically minimized) schedule log as
// a story a human can follow — which scheduling deviations fired, against
// which threads, and what the simulation's own trace says happened on the
// way to the oracle violation.

import (
	"fmt"
	"io"
)

// Narrate replays the log with an event trace and writes a human-readable
// account: configuration, the deviations that fired, and the trace tail
// (ring mode — the events leading into the failure). tailEvents bounds the
// trace portion; negative defaults to 48, zero omits the tail entirely.
func Narrate(w io.Writer, log *Log, tailEvents int) (*Outcome, error) {
	if tailEvents < 0 {
		tailEvents = 48
	}
	out, tr, err := ReplayLog(log, tailEvents)
	if err != nil {
		return nil, err
	}
	cfg := out.Config
	fmt.Fprintf(w, "schedule: %s/%s, %d threads, seed %d, strategy %s",
		cfg.Structure, cfg.Scheme, cfg.Threads, cfg.Seed, cfg.Strategy)
	if cfg.Strategy == StrategyPCT {
		fmt.Fprintf(w, " (depth %d)", cfg.Depth)
	}
	fmt.Fprintf(w, "\ndecisions: %d logged deviations from the virtual-time rule\n", len(log.Decisions))

	if out.Fired == 0 {
		fmt.Fprintf(w, "  (none fired: the workload seed alone reproduces the failure)\n")
	}
	// An unminimized log can carry hundreds of thousands of deviations;
	// the replay keeps only the head, so narrate that and point at
	// -minimize for the readable story.
	for i, a := range out.Applied {
		switch {
		case a.Preempted:
			fmt.Fprintf(w, "  %3d. decision %-8d force-preempt t%d (transaction aborted, context switched)\n",
				i+1, a.N, a.PickedTid)
		case a.Pick >= 0:
			fmt.Fprintf(w, "  %3d. decision %-8d run t%d instead of t%d (virtual-time order inverted)\n",
				i+1, a.N, a.PickedTid, a.DefaultTid)
		}
	}
	if more := out.Fired - len(out.Applied); more > 0 {
		fmt.Fprintf(w, "  ... and %d more (minimize the schedule for the distilled story)\n", more)
	}

	if tr != nil && tr.Len() > 0 {
		fmt.Fprintf(w, "\ntrace tail (%d of the run's events):\n", tr.Len())
		if err := tr.Dump(w); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(w, "\nverdict: %s\n", out.Verdict)
	return out, nil
}
