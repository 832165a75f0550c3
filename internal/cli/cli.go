// Package cli holds the small plumbing shared by the command-line front
// ends (stbench, stfuzz, stsim): the workload flag set, signal-driven
// cancellation and the conventional exit codes. It exists so every long-running command
// handles SIGINT the same way — cancel a context, let the run stop at
// the next decision/point boundary, flush partial output, and exit with
// a status that distinguishes "interrupted" from "failed".
package cli

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"stacktrack/internal/cost"
)

// Conventional exit codes.
const (
	ExitOK          = 0   // clean completion
	ExitFailure     = 1   // the tool ran and found a failure or regression
	ExitUsage       = 2   // flag / configuration errors
	ExitInterrupted = 130 // cancelled by SIGINT/SIGTERM (128 + SIGINT)
)

// SignalContext returns a context cancelled on the first SIGINT or
// SIGTERM. After the first signal the handler is removed, so a second
// signal falls back to the default disposition and kills the process
// immediately — an escape hatch when the cooperative drain itself hangs.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			signal.Stop(ch)
			cancel()
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	return ctx, cancel
}

// Interrupted reports whether err is context cancellation — the error
// shape a cancelled run surfaces — rather than a real failure.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// SplitList splits a comma-separated flag value (-run E1a,E2b) into
// its whitespace-trimmed non-empty items; an empty or all-comma value
// yields nil.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// VirtualMs converts the value of a virtual-time flag given in
// milliseconds (-measure-ms, -warmup-ms) into cycles. A negative, NaN,
// infinite or unrepresentably large value is an error naming the flag:
// converted blindly it wraps to an effectively endless horizon.
func VirtualMs(flag string, ms float64) (cost.Cycles, error) {
	if !(ms >= 0) || ms/1000*cost.ClockHz >= math.MaxUint64 {
		return 0, fmt.Errorf("-%s: %v is not a virtual time in ms (want a finite value >= 0)", flag, ms)
	}
	return cost.FromSeconds(ms / 1000), nil
}
