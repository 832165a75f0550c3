package bench

// Host-side cancellation seam: a benchmark run is a deterministic
// simulation, but the host driving it (a CLI under SIGINT) needs to stop
// one mid-flight. Every run executes through a Session; RunContext pauses
// it at scheduling-decision boundaries to poll a live context, so
// cancellation lands at a clean boundary and never mid-instruction, and a
// never-cancelled run is bit-identical to an unpolled one.

import (
	"context"
	"sync"
)

// cancelGrain is how many scheduling decisions elapse between context
// polls. Small enough that cancellation lands within milliseconds of
// host time, large enough that the pause bookkeeping is noise.
const cancelGrain = 1 << 15

// Run executes one benchmark configuration end to end.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run with cooperative cancellation: the simulation stops
// at the next scheduling-decision boundary after ctx is done and the
// context's error is returned. A nil or never-done context (Done() ==
// nil) is not polled at all.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return runSliced(ctx, cfg, nil)
}

// runSliced is RunContext's loop. A run is a sequence of slices: building
// the session, each cancelGrain decisions of the measurement window (only
// when ctx is live), and Finish, whose drain is bounded and runs
// uninterrupted. A non-nil gate's read side is held for each slice, so
// whoever takes its write side (runPoints' delivery) waits until the run
// reaches a decision boundary and parks it there until it lets go.
func runSliced(ctx context.Context, cfg Config, gate *sync.RWMutex) (res *Result, err error) {
	live := ctx != nil && ctx.Done() != nil
	if live {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	slice := func(step func()) {
		if gate != nil {
			gate.RLock()
			defer gate.RUnlock()
		}
		step()
	}
	var s *Session
	slice(func() { s, err = NewSession(cfg) })
	if err != nil {
		return nil, err
	}
	for more := live; more; {
		slice(func() { more = s.RunToDecision(s.Decisions() + cancelGrain) })
		if more {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	slice(func() { res, err = s.Finish() })
	return res, err
}
