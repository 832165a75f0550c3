package bench

import (
	"testing"

	"stacktrack/internal/cost"
)

// crashCfg runs the list workload with one thread killed mid-operation.
func crashCfg(scheme string) Config {
	cfg := smokeCfg(StructList, scheme, 4)
	cfg.MeasureCycles = cost.FromSeconds(0.008)
	cfg.CrashThreads = 1
	return cfg
}

// TestCrashStackTrackBounded: with a crashed thread, StackTrack keeps
// reclaiming; only the references pinned by the dead thread's stack and
// registers stay unreclaimed.
func TestCrashStackTrackBounded(t *testing.T) {
	res, err := Run(crashCfg(SchemeStackTrack))
	if err != nil {
		t.Fatal(err)
	}
	if res.UAFReads != 0 {
		t.Fatal("crash must never cause a use-after-free under StackTrack")
	}
	if res.Core.Freed == 0 {
		t.Fatal("reclamation stopped entirely after the crash")
	}
	unreclaimed := res.LeakedObjects + uint64(res.PendingFrees)
	// The dead thread's frame and registers can pin only a handful of
	// nodes (its operation's locals).
	if unreclaimed > 16 {
		t.Fatalf("unreclaimed = %d; should be bounded by the dead thread's locals", unreclaimed)
	}
}

// TestCrashEpochStalls: the blocking quiescence scheme waits forever on the
// dead thread — reclaiming threads hang and throughput collapses relative
// to the non-blocking schemes.
func TestCrashEpochStalls(t *testing.T) {
	epoch, err := Run(crashCfg(SchemeEpoch))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(crashCfg(SchemeStackTrack))
	if err != nil {
		t.Fatal(err)
	}
	if epoch.Throughput*3 > st.Throughput {
		t.Fatalf("epoch should collapse after a crash: epoch %.0f vs stacktrack %.0f ops/s",
			epoch.Throughput, st.Throughput)
	}
}

// TestCrashHazardsUnaffected: hazard pointers never wait, so a crash only
// pins the dead thread's hazard-slot targets.
func TestCrashHazardsUnaffected(t *testing.T) {
	res, err := Run(crashCfg(SchemeHazards))
	if err != nil {
		t.Fatal(err)
	}
	if res.UAFReads != 0 {
		t.Fatal("crash caused a use-after-free under hazard pointers")
	}
	unreclaimed := res.LeakedObjects + uint64(res.PendingFrees)
	if unreclaimed > 16 {
		t.Fatalf("unreclaimed = %d under hazard pointers", unreclaimed)
	}
}

// TestCrashedThreadLooksBusy: the scheme-visible state of a crashed thread
// is "forever mid-operation", never "done".
func TestCrashedThreadLooksBusy(t *testing.T) {
	cfg := crashCfg(SchemeStackTrack)
	in, err := newInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.sc.Run(cfg.WarmupCycles)
	victim := in.threads[cfg.Threads-1]
	horizon := cfg.WarmupCycles
	for tries := 0; tries < 10000 && !in.midOp(victim); tries++ {
		horizon += 5000
		in.sc.Run(horizon)
	}
	in.sc.Crash(victim.ID)
	if !victim.Crashed() || victim.Done() {
		t.Fatal("crashed thread must be crashed and not done")
	}
	if !in.midOp(victim) {
		t.Fatal("victim was not mid-operation at the crash")
	}
	// The survivors keep running.
	before := victim.VTime()
	in.sc.Run(horizon + cost.FromSeconds(0.002))
	if victim.VTime() != before {
		t.Fatal("crashed thread kept executing")
	}
	var survivorOps uint64
	for _, th := range in.threads[:cfg.Threads-1] {
		survivorOps += th.OpsDone
	}
	if survivorOps == 0 {
		t.Fatal("survivors made no progress")
	}
}

// TestCrashOversubscribedMidScan: 16 threads on 8 hardware contexts, scans
// triggered on every single retire (MaxFree=1), and two threads killed
// mid-operation. Victims are the highest-numbered threads, which under 2x
// oversubscription are *descheduled* waiters half the time — so this drives
// the crash paths the scheduler-level tests pin, through the full scheme
// stack. StackTrack must stay poison-free and keep reclaiming; the scan
// machinery must not wedge on the dead threads' frozen stacks.
func TestCrashOversubscribedMidScan(t *testing.T) {
	cfg := smokeCfg(StructList, SchemeStackTrack, 16)
	cfg.MeasureCycles = cost.FromSeconds(0.008)
	cfg.CrashThreads = 2
	cfg.Core.MaxFree = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UAFReads != 0 {
		t.Fatalf("%d use-after-free reads under oversubscribed crash", res.UAFReads)
	}
	if res.Core.Freed == 0 {
		t.Fatal("reclamation stopped entirely after the crashes")
	}
	if res.Core.Scans == 0 {
		t.Fatal("no scans ran despite MaxFree=1")
	}
	// Two dead stacks pin only their own locals.
	unreclaimed := res.LeakedObjects + uint64(res.PendingFrees)
	if unreclaimed > 32 {
		t.Fatalf("unreclaimed = %d; should be bounded by the dead threads' locals", unreclaimed)
	}
}

// TestCrashOversubscribedHazards: the same oversubscribed double-crash
// against hazard pointers, which must also never touch freed memory.
func TestCrashOversubscribedHazards(t *testing.T) {
	cfg := smokeCfg(StructList, SchemeHazards, 16)
	cfg.MeasureCycles = cost.FromSeconds(0.008)
	cfg.CrashThreads = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UAFReads != 0 {
		t.Fatalf("%d use-after-free reads under oversubscribed crash", res.UAFReads)
	}
	if res.Ops == 0 {
		t.Fatal("survivors made no progress")
	}
}

// TestCrashSearchOversubscribed: with more threads than hardware contexts
// the victim is often a descheduled waiter, and each search Run must still
// step the schedule, so the search finds the victim mid-operation well
// before its try cap — on E9's quick configurations at 12 and 16 threads
// (two threads on some or all contexts) and at 24 (three on each).
func TestCrashSearchOversubscribed(t *testing.T) {
	o := QuickOptions().WithDefaults()
	for _, n := range []int{12, 16, 24} {
		for _, scheme := range []string{SchemeEpoch, SchemeHazards, SchemeDTA, SchemeStackTrack} {
			cfg := o.cfg(StructList, scheme, n)
			cfg.CrashThreads = 1
			in, err := newInstance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			in.sc.Run(in.cfg.WarmupCycles)
			in.horizon = in.cfg.WarmupCycles
			victim := in.threads[n-1]
			before := in.sc.Decisions()
			if !in.crashSearch(victim) {
				t.Fatalf("%s/%d: crash search paused with no pause point armed", scheme, n)
			}
			if in.crashTries >= crashSearchTries || !in.midOp(victim) {
				t.Fatalf("%s/%d: search used %d of %d tries, victim mid-operation: %v",
					scheme, n, in.crashTries, crashSearchTries, in.midOp(victim))
			}
			if in.sc.Decisions() == before {
				t.Fatalf("%s/%d: search made no decisions", scheme, n)
			}
		}
	}
}
