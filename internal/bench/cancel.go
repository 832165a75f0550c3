package bench

// Host-side cancellation seam: a benchmark run is a deterministic
// simulation, but the host driving it (a CLI under SIGINT) needs to stop
// one mid-flight. RunContext drives the run through a Session, pausing at
// scheduling-decision boundaries to poll the context — so cancellation
// lands at a clean boundary and never mid-instruction, and an uncancelled
// RunContext is bit-identical to Run (the Session machinery is the same
// phase machine Run uses).

import "context"

// cancelGrain is how many scheduling decisions elapse between context
// polls. Small enough that cancellation lands within milliseconds of
// host time, large enough that the pause bookkeeping is noise.
const cancelGrain = 1 << 15

// RunContext is Run with cooperative cancellation: the simulation stops
// at the next scheduling-decision boundary after ctx is done and the
// context's error is returned. A nil or never-cancelled context degrades
// to plain Run. Profiled or traced configurations are not pausable
// (Session refuses them), so they check the context once up front and
// then run uninterrupted.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return Run(cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	if cfg.Profile || cfg.TraceEvents > 0 {
		return Run(cfg)
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	for s.RunToDecision(s.Decisions() + cancelGrain) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Measurement window complete; the drain phase inside Finish is
	// bounded and runs uninterrupted.
	res, err := s.Finish()
	if err == nil {
		// The session never escapes this function, so the memory can be
		// recycled just as in Run.
		s.in.m.Release()
	}
	return res, err
}

// run dispatches one point of a sweep through the cancellation seam when
// the Options carry a context.
func (o Options) run(cfg Config) (*Result, error) {
	if o.Ctx != nil {
		return RunContext(o.Ctx, cfg)
	}
	return Run(cfg)
}
