package explore

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestExploreFindsSeededFailure(t *testing.T) {
	cfg := raceCfg("list", StrategyRandom, 1)
	res, err := Explore(context.Background(), cfg, 1, Budget{MaxRuns: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatalf("no failure in %d runs", res.Runs)
	}
	// With one worker seeds are visited in order, so the reported failure is
	// the lowest failing seed — and its log must replay to the same verdict.
	rep, _, err := ReplayLog(res.Failure.Log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != res.Failure.Verdict {
		t.Fatalf("campaign failure does not replay: campaign %s, replay %s",
			res.Failure.Verdict, rep.Verdict)
	}
}

func TestExploreParallelMatchesSerial(t *testing.T) {
	cfg := raceCfg("list", StrategyRandom, 1)
	serial, err := Explore(context.Background(), cfg, 1, Budget{MaxRuns: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Failure == nil {
		t.Fatal("serial campaign found nothing")
	}
	par, err := Explore(context.Background(), cfg, 4, Budget{MaxRuns: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.Failure == nil {
		t.Fatal("parallel campaign found nothing")
	}
	// Parallel workers race past the stop flag, so they may surface a higher
	// seed — but any failure they report must be a real, replayable one.
	rep, _, err := ReplayLog(par.Failure.Log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdict.Failed {
		t.Fatalf("parallel campaign failure does not replay: %s", rep.Verdict)
	}
}

func TestExploreRespectsRunBudget(t *testing.T) {
	cfg := tinyCfg("list", "stacktrack", StrategyRandom, 1)
	res, err := Explore(context.Background(), cfg, 2, Budget{MaxRuns: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs > 5 {
		t.Fatalf("budget of 5 runs, campaign made %d", res.Runs)
	}
	if res.Failure != nil {
		t.Fatalf("safe scheme failed: %s", res.Failure.Verdict)
	}
}

func TestExploreRespectsWallBudget(t *testing.T) {
	cfg := tinyCfg("list", "stacktrack", StrategyRandom, 1)
	start := time.Now()
	res, err := Explore(context.Background(), cfg, 2, Budget{Wall: 50 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Generous bound: the deadline stops new runs; in-flight ones finish.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("50ms wall budget ran for %v (%d runs)", el, res.Runs)
	}
	if res.Runs == 0 {
		t.Fatal("campaign made no runs at all")
	}
}

func TestExploreRejectsBadStrategy(t *testing.T) {
	cfg := tinyCfg("list", "stacktrack", "no-such-strategy", 1)
	if _, err := Explore(context.Background(), cfg, 2, Budget{MaxRuns: 2}, nil); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestCampaignStopsAtFirstFailure: a one-worker campaign walks its seeds
// in order and stops at the first failure, so it reports that seed after
// exactly failAt−first+1 runs; with no failure in range it spends the
// whole budget and reports none.
func TestCampaignStopsAtFirstFailure(t *testing.T) {
	const first, maxRuns = 10, 12

	stub := func(failAt uint64) (*CampaignResult, error) {
		return campaign(context.Background(), 1, Budget{MaxRuns: maxRuns}, first, nil,
			func(seed uint64) (*Outcome, error) {
				out := &Outcome{Log: &Log{}}
				if seed == failAt {
					out.Verdict = Verdict{Failed: true, Oracle: "stub"}
				}
				return out, nil
			})
	}

	for failAt := uint64(first); failAt < first+maxRuns; failAt++ {
		res, err := stub(failAt)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(failAt-first) + 1; res.Runs != want {
			t.Fatalf("fail@%d: %d runs, want %d", failAt, res.Runs, want)
		}
		if res.Failure == nil || res.Failure.Seed != failAt {
			t.Fatalf("fail@%d: failure %v, want seed %d", failAt, res.Failure, failAt)
		}
	}

	res, err := stub(first + maxRuns + 100) // never fails in range
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != maxRuns || res.Failure != nil {
		t.Fatalf("all-pass: %d runs, failure %v; want %d runs, none", res.Runs, res.Failure, maxRuns)
	}
}

// TestCampaignReportsWorkers: the result names the worker count the
// campaign ran with, GOMAXPROCS when the caller asked for <= 0.
func TestCampaignReportsWorkers(t *testing.T) {
	pass := func(uint64) (*Outcome, error) { return &Outcome{Log: &Log{}}, nil }
	for _, c := range []struct{ asked, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{-3, runtime.GOMAXPROCS(0)},
		{1, 1},
		{3, 3},
	} {
		res, err := campaign(context.Background(), c.asked, Budget{MaxRuns: 4}, 1, nil, pass)
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != c.want {
			t.Errorf("%d workers asked: result reports %d, want %d", c.asked, res.Workers, c.want)
		}
	}
}
