package bench

// The point runner: every experiment is a list of independent points,
// each a fresh simulated machine, and runPoints is the one place a sweep
// simulates them, collects them and reports progress.
//
// Points run in waves as wide as GOMAXPROCS: up to that many start
// together, and once all of them have finished they are delivered in
// axis order on the caller's goroutine. Collect and Progress therefore
// never run while a point is simulating, so a caller may time work of
// its own inside Collect (the host-speed benchmark runs its speed
// reference there) without a simulation competing for the CPU. Each
// point's result is a deterministic function of its Config, so the
// delivered results do not depend on the width; GOMAXPROCS=1 is a
// serial run.

import (
	"fmt"
	"runtime"
	"sync"
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

// runPoints runs pts and returns their results in order. Each result is
// handed to Collect, and line's text to Progress, in order. Before each
// delivery it checks Ctx: once the context is done no further point is
// delivered, not even a wave-mate that finished, and the context's error
// is returned. A point's error ends the sweep the same way, after the
// points before it have been delivered. A point that panics has its
// panic re-raised here, on the caller's goroutine, with the same value.
func (o Options) runPoints(pts []sweepPoint, line func(p sweepPoint, res *Result) string) ([]*Result, error) {
	width := o.workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		res      *Result
		err      error
		panicVal any
	}
	outs := make([]outcome, len(pts))
	results := make([]*Result, len(pts))
	for lo := 0; lo < len(pts); lo += width {
		hi := min(lo+width, len(pts))
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(out *outcome, cfg Config) {
				defer wg.Done()
				defer func() { out.panicVal = recover() }()
				out.res, out.err = RunContext(o.Ctx, cfg)
			}(&outs[i], pts[i].cfg)
		}
		wg.Wait()
		for i := lo; i < hi; i++ {
			if o.Ctx != nil {
				if err := o.Ctx.Err(); err != nil {
					return nil, err
				}
			}
			out := outs[i]
			if out.panicVal != nil {
				panic(out.panicVal)
			}
			if out.err != nil {
				return nil, out.err
			}
			results[i] = out.res
			if o.Collect != nil {
				o.Collect(pts[i].series, pts[i].threads, out.res)
			}
			if o.Progress != nil {
				fmt.Fprintln(o.Progress, line(pts[i], out.res))
			}
		}
	}
	return results, nil
}
