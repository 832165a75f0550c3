package bench

// The point runner: every experiment is a list of independent points,
// each a fresh simulated machine, and runPoints is the one place a sweep
// simulates them, collects them and reports progress.
//
// Points run on a pool of GOMAXPROCS workers, each of which starts the
// next point as soon as it finishes one. They are delivered in axis
// order, on the caller's goroutine, in groups: once the next as many
// consecutive points as there are workers have all finished, together
// with every later point that has finished by then. A point is not
// delivered as it finishes: a group waits for its slowest point, while
// the workers go on with later points. A delivery parks every worker at a
// decision boundary (runSliced's gate), so Collect and Progress never run
// while a point is simulating, and a caller may time work of its own
// inside Collect (the host-speed benchmark runs its speed reference there)
// without a simulation competing for the CPU. Each point's result is a
// deterministic function of its Config, so the delivered results do not
// depend on the width; GOMAXPROCS=1 is a serial run.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// sweepPoint is one simulation of a sweep: the series it is collected under
// (a scheme or a variant), its thread count, and its configuration.
type sweepPoint struct {
	series  string
	threads int
	cfg     Config
}

// sweep runs one point per thread count and series, thread-major, and
// returns the results by row: rows[i][j] is threads[i] under series[j],
// the layout of a table's rows and columns.
func (o Options) sweep(threads []int, series []string, cfg func(series string, threads int) Config,
	line func(p sweepPoint, res *Result) string) ([][]*Result, error) {
	pts := make([]sweepPoint, 0, len(threads)*len(series))
	for _, n := range threads {
		for _, s := range series {
			pts = append(pts, sweepPoint{series: s, threads: n, cfg: cfg(s, n)})
		}
	}
	results, err := o.runPoints(pts, line)
	if err != nil {
		return nil, err
	}
	rows := make([][]*Result, len(threads))
	for i := range rows {
		rows[i] = results[i*len(series) : (i+1)*len(series)]
	}
	return rows, nil
}

// pointOutcome is what a worker leaves for the caller; done is closed
// once the rest is set.
type pointOutcome struct {
	res      *Result
	err      error
	panicVal any
	done     chan struct{}
}

func (out *pointOutcome) failed() bool { return out.err != nil || out.panicVal != nil }

// finished reports, without waiting, whether the point's worker is done.
func finished(out *pointOutcome) bool {
	select {
	case <-out.done:
		return true
	default:
		return false
	}
}

// runPoints runs pts and returns their results in order. Each result is
// handed to Collect, and line's text to Progress, in order. Before each
// delivery it checks Ctx: once the context is done no further point is
// delivered, not even one that finished, and the context's error is
// returned. A point's error ends the sweep the same way, after the points
// before it have been delivered; once it is known, each worker starts at
// most the one point it may already have been taking. A point that
// panics has its panic re-raised here, on the caller's goroutine, with
// the same value. Whichever way runPoints returns, it first cancels the
// points still running and waits for its workers.
func (o Options) runPoints(pts []sweepPoint, line func(p sweepPoint, res *Result) string) ([]*Result, error) {
	width := o.workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	parent := o.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	outs := make([]pointOutcome, len(pts))
	for i := range outs {
		outs[i].done = make(chan struct{})
	}
	var (
		gate sync.RWMutex // workers hold the read side per slice, delivery the write side
		next atomic.Int64 // the next point to start
		stop atomic.Bool  // a point failed: start no further point
		wg   sync.WaitGroup
	)
	work := func(out *pointOutcome, cfg Config) {
		defer func() {
			out.panicVal = recover()
			if out.failed() {
				stop.Store(true)
			}
			close(out.done)
		}()
		out.res, out.err = runSliced(ctx, cfg, &gate)
	}
	for range min(width, len(pts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(pts) {
					return
				}
				work(&outs[i], pts[i].cfg)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	results := make([]*Result, len(pts))
	// deliver hands points lo..hi-1, all finished, to the caller's
	// observers. It holds the gate's write side across them on purpose:
	// that parks every worker, so nothing simulates while Collect runs.
	deliver := func(lo, hi int) error {
		gate.Lock()
		defer gate.Unlock()
		for i := lo; i < hi; i++ {
			if err := parent.Err(); err != nil {
				return err
			}
			out := &outs[i]
			if out.panicVal != nil {
				panic(out.panicVal)
			}
			if out.err != nil {
				return out.err
			}
			results[i] = out.res
			if o.Collect != nil {
				o.Collect(pts[i].series, pts[i].threads, out.res)
			}
			if o.Progress != nil {
				fmt.Fprintln(o.Progress, line(pts[i], out.res))
			}
		}
		return nil
	}
	for lo := 0; lo < len(pts); {
		// Every point before a failed one was started before it, so the
		// wait never blocks on a point that will not run.
		hi := min(lo+width, len(pts))
		for i := lo; i < hi; i++ {
			<-outs[i].done
			if outs[i].failed() {
				hi = i + 1 // deliver up to the failure, which ends the sweep
				break
			}
		}
		// Points past the group that have already finished ride along,
		// so the workers stop once for all of them, not once per group.
		for hi < len(pts) && !outs[hi-1].failed() && finished(&outs[hi]) {
			hi++
		}
		if err := deliver(lo, hi); err != nil {
			return nil, err
		}
		lo = hi
	}
	return results, nil
}
