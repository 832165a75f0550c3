package explore

// The parallel exploration driver. Every simulation is an independent,
// single-goroutine deterministic world, so exploring a seed space is
// embarrassingly parallel: a pool of host goroutines drains a seed issuer
// under a shared wall-clock/run budget and stops on the first failure
// (lowest-seed failure wins when several arrive together, keeping the
// driver's output deterministic for a fixed seed range even under racing
// workers).
//
// Two campaign shapes share the core:
//
//   - Explore varies the workload seed, recording every run from scratch.
//   - ExploreForkHeap fixes the workload and varies the strategy seed over
//     one warmed-up heap: a single default-rule run is checkpointed at the
//     warmup boundary (internal/snap) and every campaign run forks that
//     snapshot, paying the warmup cost exactly once.
//
// Progress is optionally persisted (SeedProgress) so an interrupted sweep
// resumes where it left off instead of restarting.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stacktrack/internal/bench"
)

// Budget bounds one exploration campaign. A zero field sets no bound of
// its kind, so a zero budget runs until a run fails or the campaign's
// context is cancelled.
type Budget struct {
	// Wall stops issuing new runs after this much wall-clock time.
	Wall time.Duration
	// MaxRuns stops after this many simulations.
	MaxRuns int
}

// Failure describes the first (lowest-seed) failing run of a campaign.
// Seed is the varied dimension: the workload seed under Explore, the
// strategy seed under ExploreForkHeap.
type Failure struct {
	Seed    uint64
	Verdict Verdict
	Log     *Log
}

// CampaignResult summarizes one Explore call.
type CampaignResult struct {
	Runs int
	// Workers is how many host goroutines ran the campaign: the requested
	// count, or GOMAXPROCS when that was <= 0.
	Workers int
	Elapsed time.Duration
	Failure *Failure // nil when every run within budget passed
}

// SeedProgress is a campaign's resumable position (stfuzz -resume): the
// contiguous completed frontier plus seeds finished out of order beyond it
// by racing workers. Seeds claimed but not completed when a run was
// interrupted are simply re-issued on resume — they are the pending queue.
type SeedProgress struct {
	// Fingerprint pins the campaign shape (config minus the varied seed
	// dimension); resuming under a different configuration fails loudly.
	Fingerprint string `json:"fingerprint"`
	// First is the campaign's starting seed.
	First uint64 `json:"first"`
	// Frontier: every seed in [First, Frontier) is completed.
	Frontier uint64 `json:"frontier"`
	// Done lists completed seeds >= Frontier (sorted).
	Done []uint64 `json:"done,omitempty"`
	// Runs counts completed runs across all invocations.
	Runs int `json:"runs"`

	path    string
	mu      sync.Mutex
	next    uint64
	doneSet map[uint64]bool
	dirty   int
}

// campaignFingerprint digests everything that shapes a campaign except the
// dimension it sweeps.
func campaignFingerprint(cfg RunConfig, forkHeap bool) string {
	cfg = cfg.WithDefaults()
	mode := "seeds"
	if forkHeap {
		mode = "forkheap"
	} else {
		cfg.Seed = 0
	}
	cfg.StratSeed = 0
	return fmt.Sprintf("%s|%+v", mode, cfg)
}

// LoadSeedProgress opens (or initializes) a progress file for the given
// campaign. An existing file must match the campaign's fingerprint and
// starting seed.
func LoadSeedProgress(path string, cfg RunConfig, forkHeap bool) (*SeedProgress, error) {
	cfg = cfg.WithDefaults()
	first := cfg.Seed
	if forkHeap {
		first = cfg.StratSeed
	}
	p := &SeedProgress{
		Fingerprint: campaignFingerprint(cfg, forkHeap),
		First:       first,
		Frontier:    first,
		path:        path,
		doneSet:     make(map[uint64]bool),
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	var saved SeedProgress
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil, fmt.Errorf("explore: parsing progress file %s: %w", path, err)
	}
	if saved.Fingerprint != p.Fingerprint {
		return nil, fmt.Errorf("explore: progress file %s belongs to a different campaign\n  file:    %s\n  request: %s",
			path, saved.Fingerprint, p.Fingerprint)
	}
	if saved.First != first {
		return nil, fmt.Errorf("explore: progress file %s starts at seed %d, campaign at %d", path, saved.First, first)
	}
	p.Frontier = saved.Frontier
	p.Runs = saved.Runs
	for _, s := range saved.Done {
		p.doneSet[s] = true
	}
	return p, nil
}

// Completed reports how many runs this progress has accumulated.
func (p *SeedProgress) Completed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Runs
}

// claim issues the next seed that is neither completed nor already issued
// in this invocation.
func (p *SeedProgress) claim() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next < p.Frontier {
		p.next = p.Frontier
	}
	for p.doneSet[p.next] {
		p.next++
	}
	s := p.next
	p.next++
	return s
}

// markDone records a completed seed and advances the frontier, persisting
// periodically so an interrupt loses little work.
func (p *SeedProgress) markDone(seed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Runs++
	p.doneSet[seed] = true
	for p.doneSet[p.Frontier] {
		delete(p.doneSet, p.Frontier)
		p.Frontier++
	}
	p.dirty++
	if p.path != "" && p.dirty >= 16 {
		p.saveLocked() // best-effort; Save reports errors at campaign end
	}
}

// Save persists the progress file (atomic write-then-rename).
func (p *SeedProgress) Save() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.saveLocked()
}

func (p *SeedProgress) saveLocked() error {
	p.Done = p.Done[:0]
	for s := range p.doneSet {
		p.Done = append(p.Done, s)
	}
	sort.Slice(p.Done, func(i, j int) bool { return p.Done[i] < p.Done[j] })
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	tmp := p.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, p.path); err != nil {
		return err
	}
	p.dirty = 0
	return nil
}

// Explore fans workers host goroutines out over seeds cfg.Seed,
// cfg.Seed+1, ... — each run records its schedule, so the returned failure
// is immediately replayable and minimizable. workers <= 0 uses GOMAXPROCS.
// Cancelling ctx stops the campaign at the next run boundary: completed
// runs stand, the interrupted run is discarded, and the campaign returns
// normally (callers that care distinguish via ctx.Err()). A non-nil prog
// persists progress: already-completed seeds are skipped and completions
// are recorded as they land.
func Explore(ctx context.Context, cfg RunConfig, workers int, budget Budget, prog *SeedProgress) (*CampaignResult, error) {
	cfg = cfg.WithDefaults()
	// Validate the configuration once, up front, so workers can treat
	// errors as fatal bugs instead of racing to report them.
	if _, err := NewStrategy(cfg); err != nil {
		return nil, err
	}
	return campaign(ctx, workers, budget, cfg.Seed, prog, func(seed uint64) (*Outcome, error) {
		c := cfg
		c.Seed = seed
		c.StratSeed = 0 // re-derive per seed
		return Record(c)
	})
}

// ExploreForkHeap explores schedules over one shared warmed-up heap: the
// workload seed stays fixed, a single run under the default scheduling
// rule is checkpointed at the warmup boundary, and each campaign run forks
// that snapshot with a fresh strategy seed (cfg.StratSeed, +1, ...).
// Because the shared prefix follows the default rule, it contributes no
// deviations — every recorded artifact still replays from scratch.
func ExploreForkHeap(ctx context.Context, cfg RunConfig, workers int, budget Budget, prog *SeedProgress) (*CampaignResult, error) {
	cfg = cfg.WithDefaults()
	if _, err := NewStrategy(cfg); err != nil {
		return nil, err
	}
	bc := cfg.benchConfig() // Policy nil: the default virtual-time rule
	ses, err := bench.NewSession(bc)
	if err != nil {
		return nil, err
	}
	if !ses.RunToVTime(cfg.WarmupCycles) {
		return nil, fmt.Errorf("explore: run ended before the warmup boundary; nothing to fork")
	}
	base, err := ses.Snapshot()
	if err != nil {
		return nil, err
	}
	n0 := base.Decisions()
	return campaign(ctx, workers, budget, cfg.StratSeed, prog, func(seed uint64) (*Outcome, error) {
		c := cfg
		c.StratSeed = seed
		return record(c, base, n0, 0)
	})
}

// campaign is the shared worker-pool core: claim a seed, run it, report
// the lowest failing seed. A done context stops workers at the next run
// boundary, exactly like an expired wall-clock budget.
func campaign(ctx context.Context, workers int, budget Budget, first uint64, prog *SeedProgress,
	run func(seed uint64) (*Outcome, error)) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	deadline := time.Time{}
	if budget.Wall > 0 {
		deadline = start.Add(budget.Wall)
	}

	var (
		next     atomic.Uint64 // seed issuer when no progress is attached
		runs     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		fail     *Failure
		wg       sync.WaitGroup
	)
	next.Store(first)
	claim := func() uint64 {
		if prog != nil {
			return prog.claim()
		}
		return next.Add(1) - 1
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				n := runs.Add(1)
				if budget.MaxRuns > 0 && n > int64(budget.MaxRuns) {
					return
				}
				seed := claim()
				out, err := run(seed)
				if prog != nil && err == nil {
					prog.markDone(seed)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					stop.Store(true)
					mu.Unlock()
					return
				}
				if out.Verdict.Failed {
					if fail == nil || seed < fail.Seed {
						fail = &Failure{Seed: seed, Verdict: out.Verdict, Log: out.Log}
					}
					stop.Store(true)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	res := &CampaignResult{Workers: workers, Elapsed: time.Since(start), Failure: fail}
	res.Runs = int(runs.Load())
	if budget.MaxRuns > 0 && res.Runs > budget.MaxRuns {
		res.Runs = budget.MaxRuns
	}
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	return res, nil
}
