package bench

// Determinism round-trip tests for the checkpoint/restore subsystem: a
// paused-and-resumed run, a snapshot restored in this process, a fork, and
// a snapshot restored in a genuinely fresh process must all be
// bit-identical to the uninterrupted run — compared through the same
// byte-stable JSON export stbench emits.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"stacktrack/internal/core"
	"stacktrack/internal/cost"
	"stacktrack/internal/snap"
)

// quickCfg is a Figure-1-style point shrunk to test size: list, mixed
// workload, several threads on an oversubscribed topology slice.
func quickCfg(scheme string) Config {
	return Config{
		Structure:     StructList,
		Scheme:        scheme,
		Threads:       4,
		Seed:          0x5EED1,
		InitialSize:   96,
		KeyRange:      256,
		MutatePct:     40,
		WarmupCycles:  cost.FromSeconds(0.0002),
		MeasureCycles: cost.FromSeconds(0.0010),
		MemWords:      1 << 18,
		Validate:      true,
	}
}

// exportBytes renders results exactly the way stbench's -json export
// does, so byte equality here is byte equality of the shipped artifact.
func exportBytes(t *testing.T, name string, results ...*Result) []byte {
	t.Helper()
	doc := &ResultsJSON{Schema: SchemaVersion}
	exp := &ExperimentJSON{Schema: SchemaVersion, Name: name}
	for _, res := range results {
		exp.Points = append(exp.Points, PointJSON{
			Series:          res.Config.Scheme,
			Threads:         res.Config.Threads,
			Ops:             res.Ops,
			Throughput:      res.Throughput,
			AvgSegmentLimit: res.AvgSegmentLimit,
			Derived:         derivedRates(res.Config.Threads, res),
			Metrics:         res.Metrics,
		})
	}
	doc.Experiments = append(doc.Experiments, exp)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

// hygieneKey summarizes the Result fields the JSON export does not carry,
// so the comparison covers conservation and memory hygiene too.
func hygieneKey(res *Result) string {
	return fmt.Sprintf("ins=%d del=%d hits=%d ti=%d td=%d live=%d base=%d leak=%d uaf=%d final=%d pend=%d",
		res.SuccInserts, res.SuccDeletes, res.Hits,
		res.TotalInserts, res.TotalDeletes,
		res.LiveObjects, res.BaselineLive, res.LeakedObjects,
		res.UAFReads, res.FinalCount, res.PendingFrees)
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func assertSameRun(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wb := exportBytes(t, "roundtrip", want)
	gb := exportBytes(t, "roundtrip", got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("%s: JSON export differs from uninterrupted run\nwant ops=%d got ops=%d", label, want.Ops, got.Ops)
	}
	if wk, gk := hygieneKey(want), hygieneKey(got); wk != gk {
		t.Errorf("%s: hygiene fields differ\nwant %s\ngot  %s", label, wk, gk)
	}
	if !reflect.DeepEqual(want.Histories, got.Histories) {
		t.Errorf("%s: histories differ", label)
	}
}

// totalDecisions runs cfg to the end of its measurement window and
// reports the decision count there.
func totalDecisions(t *testing.T, cfg Config) uint64 {
	t.Helper()
	ses, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if ses.RunToDecision(math.MaxUint64) {
		t.Fatalf("pause at MaxUint64 fired")
	}
	return ses.Decisions()
}

// TestSessionFinishMatchesRun: driving a run through the Session API with
// no pause is the same run.
func TestSessionFinishMatchesRun(t *testing.T) {
	for _, scheme := range []string{SchemeStackTrack, SchemeEpoch, SchemeHazards} {
		cfg := quickCfg(scheme)
		want := mustRun(t, cfg)
		ses, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("%s: NewSession: %v", scheme, err)
		}
		got, err := ses.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", scheme, err)
		}
		assertSameRun(t, scheme, want, got)
	}
}

// TestPauseResumeBitIdentical: pausing mid-run (several times) and
// resuming in the same session does not perturb the schedule.
func TestPauseResumeBitIdentical(t *testing.T) {
	cfg := quickCfg(SchemeStackTrack)
	want := mustRun(t, cfg)
	total := totalDecisions(t, cfg)

	ses, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	for _, frac := range []uint64{10, 3, 2} { // mid-warmup through mid-measure
		if !ses.RunToDecision(total / frac) {
			t.Fatalf("pause at %d/%d did not fire", total, frac)
		}
	}
	got, err := ses.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	assertSameRun(t, "pause-resume", want, got)
}

// TestSnapshotRestoreBitIdentical: snapshot at several positions (and
// under several schemes, including a crash-injection run), restore into a
// fresh instance in-process, finish, and compare with the uninterrupted
// run. Also verifies the donor session is unharmed by being snapshotted.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"stacktrack", quickCfg(SchemeStackTrack)},
		{"epoch", quickCfg(SchemeEpoch)},
		{"dta", quickCfg(SchemeDTA)},
		{"refcount", quickCfg(SchemeRefCount)},
	}
	crash := quickCfg(SchemeEpoch)
	crash.CrashThreads = 1
	cases = append(cases, struct {
		name string
		cfg  Config
	}{"epoch-crash", crash})
	hist := quickCfg(SchemeStackTrack)
	hist.History = true
	cases = append(cases, struct {
		name string
		cfg  Config
	}{"stacktrack-history", hist})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := mustRun(t, tc.cfg)
			total := totalDecisions(t, tc.cfg)
			for _, frac := range []uint64{4, 2} {
				at := total / frac
				ses, err := NewSession(tc.cfg)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				if !ses.RunToDecision(at) {
					t.Fatalf("pause at %d did not fire", at)
				}
				st, err := ses.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				restored, err := SessionFromSnapshot(tc.cfg, st)
				if err != nil {
					t.Fatalf("SessionFromSnapshot: %v", err)
				}
				got, err := restored.Finish()
				if err != nil {
					t.Fatalf("restored Finish: %v", err)
				}
				assertSameRun(t, fmt.Sprintf("restore@%d", at), want, got)

				// The donor continues unperturbed after being snapshotted.
				donor, err := ses.Finish()
				if err != nil {
					t.Fatalf("donor Finish: %v", err)
				}
				assertSameRun(t, fmt.Sprintf("donor@%d", at), want, donor)
			}
		})
	}
}

// TestSnapshotRestoreMidScanSweep restores StackTrack runs at evenly
// spaced decisions with a scan on every free (MaxFree 1) and scan elision
// on, so many snapshots land inside a SCAN_AND_FREE whose victim is
// scanned under its track mask. Every restored run must finish
// bit-identical to the uninterrupted one, for both scan sinks on the list
// and the skip list. A restore that drops the victim's mask scans it in
// full and diverges.
func TestSnapshotRestoreMidScanSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("restores 4 runs at 40 points each")
	}
	const points = 40
	for _, structure := range []string{StructList, StructSkipList} {
		for _, hashed := range []bool{false, true} {
			cfg := quickCfg(SchemeStackTrack)
			cfg.Structure = structure
			cfg.Core = core.Config{MaxFree: 1, HashedScan: hashed}
			t.Run(fmt.Sprintf("%s/hashed=%v", structure, hashed), func(t *testing.T) {
				want := mustRun(t, cfg)
				total := totalDecisions(t, cfg)
				donor, err := NewSession(cfg)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				for i := uint64(1); i <= points; i++ {
					at := total * i / (points + 1)
					if !donor.RunToDecision(at) {
						t.Fatalf("pause at %d did not fire", at)
					}
					st, err := donor.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					restored, err := SessionFromSnapshot(cfg, st)
					if err != nil {
						t.Fatalf("SessionFromSnapshot: %v", err)
					}
					got, err := restored.Finish()
					if err != nil {
						t.Fatalf("restored Finish: %v", err)
					}
					assertSameRun(t, fmt.Sprintf("restore@%d", at), want, got)
				}
			})
		}
	}
}

// TestForkBranchesIndependent: two forks of one snapshot run to completion
// independently and identically.
func TestForkBranchesIndependent(t *testing.T) {
	cfg := quickCfg(SchemeStackTrack)
	want := mustRun(t, cfg)
	total := totalDecisions(t, cfg)

	ses, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !ses.RunToDecision(total / 2) {
		t.Fatal("pause did not fire")
	}
	st, err := ses.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	a, err := SessionFromSnapshot(cfg, st)
	if err != nil {
		t.Fatalf("fork a: %v", err)
	}
	b, err := SessionFromSnapshot(cfg, st)
	if err != nil {
		t.Fatalf("fork b: %v", err)
	}
	// Interleave the branches' execution to prove they share no state.
	if !a.RunToDecision(total*3/4) || !b.RunToDecision(total*2/3) {
		t.Fatal("branch pause did not fire")
	}
	ra, err := a.Finish()
	if err != nil {
		t.Fatalf("a.Finish: %v", err)
	}
	rb, err := b.Finish()
	if err != nil {
		t.Fatalf("b.Finish: %v", err)
	}
	assertSameRun(t, "fork-a", want, ra)
	assertSameRun(t, "fork-b", want, rb)
}

// TestRunToVTime pauses on the virtual clock instead of the decision
// counter and still restores bit-identically.
func TestRunToVTime(t *testing.T) {
	cfg := quickCfg(SchemeStackTrack)
	want := mustRun(t, cfg)
	ses, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !ses.RunToVTime(cfg.WarmupCycles + cfg.MeasureCycles/3) {
		t.Fatal("vtime pause did not fire")
	}
	st, err := ses.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := SessionFromSnapshot(cfg, st)
	if err != nil {
		t.Fatalf("SessionFromSnapshot: %v", err)
	}
	got, err := restored.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	assertSameRun(t, "vtime-restore", want, got)
}

// TestSessionGuards: observability modes whose state is not snapshotted
// run and pause, but are refused where that state would be lost — at
// Snapshot and at SessionFromSnapshot — and restoring under a different
// configuration fails loudly rather than corrupting.
func TestSessionGuards(t *testing.T) {
	cfg := quickCfg(SchemeStackTrack)
	ses, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !ses.RunToDecision(500) {
		t.Fatal("pause did not fire")
	}
	st, err := ses.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"Profile", func(c *Config) { c.Profile = true }},
		{"TraceEvents", func(c *Config) { c.TraceEvents = 10 }},
	} {
		obs := quickCfg(SchemeStackTrack)
		tc.tweak(&obs)
		paused, err := NewSession(obs)
		if err != nil {
			t.Fatalf("NewSession with %s: %v", tc.name, err)
		}
		if !paused.RunToDecision(500) {
			t.Fatalf("%s: pause did not fire", tc.name)
		}
		if _, err := paused.Snapshot(); err == nil {
			t.Errorf("Snapshot accepted a session with %s", tc.name)
		}
		if _, err := SessionFromSnapshot(obs, st); err == nil {
			t.Errorf("SessionFromSnapshot accepted a config with %s", tc.name)
		}
	}

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := SessionFromSnapshot(other, st); err == nil {
		t.Error("restore accepted a snapshot from a different configuration")
	}
}

// TestRestoreFromSnapshotConfig checkpoints runs shaped like
// internal/explore's (its RunConfig defaults: 16 hash buckets, a 32-entry
// queue prefill and 1M words of memory, which neither bench's defaults nor
// stsim's flags reproduce), round-trips the snapshot through the file
// encoding, and restores it from the configuration it records. The
// restored run's export must equal the uninterrupted run's byte for byte,
// and bench's defaults must be refused as a different run.
func TestRestoreFromSnapshotConfig(t *testing.T) {
	for _, tc := range []struct{ structure, scheme string }{
		{StructHash, SchemeStackTrack},
		{StructQueue, SchemeHazards},
	} {
		t.Run(tc.structure, func(t *testing.T) {
			cfg := Config{
				Structure: tc.structure, Scheme: tc.scheme, Threads: 7, Seed: 6,
				InitialSize: 48, KeyRange: 96, MutatePct: 60, Buckets: 16, QueuePrefill: 32,
				WarmupCycles: cost.FromSeconds(0.0002), MeasureCycles: cost.FromSeconds(0.002),
				MemWords: 1 << 20, Validate: true,
			}
			want := mustRun(t, cfg)
			ses, err := NewSession(cfg)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			if !ses.RunToDecision(totalDecisions(t, cfg) / 2) {
				t.Fatal("pause did not fire")
			}
			saved, err := ses.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			var buf bytes.Buffer
			if err := snap.Encode(&buf, saved); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			st, err := snap.Decode(&buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			rcfg, err := SnapshotConfig(st)
			if err != nil {
				t.Fatalf("SnapshotConfig: %v", err)
			}
			defaults := rcfg
			defaults.Buckets, defaults.QueuePrefill, defaults.MemWords = 0, 0, 0
			if _, err := SessionFromSnapshot(defaults, st); err == nil {
				t.Error("restore under bench's defaults accepted an explore-shaped snapshot")
			}
			restored, err := SessionFromSnapshot(rcfg, st)
			if err != nil {
				t.Fatalf("SessionFromSnapshot: %v", err)
			}
			got, err := restored.Finish()
			if err != nil {
				t.Fatalf("restored Finish: %v", err)
			}
			if wb, gb := exportBytes(t, "explore-shaped", want), exportBytes(t, "explore-shaped", got); !bytes.Equal(wb, gb) {
				t.Fatalf("restored run differs from the uninterrupted one:\n%s\nvs\n%s", gb, wb)
			}
		})
	}
}

const helperSnapEnv = "STSNAP_HELPER_FILE"

// TestHelperFinishFromSnapshot is not a test: it is the child half of
// TestFreshProcessRestore, selected by environment variable. It restores
// the snapshot file, finishes the run, and writes the JSON export next to
// it.
func TestHelperFinishFromSnapshot(t *testing.T) {
	path := os.Getenv(helperSnapEnv)
	if path == "" {
		t.Skip("helper process only")
	}
	st, err := snap.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	scheme := os.Getenv("STSNAP_HELPER_SCHEME")
	ses, err := SessionFromSnapshot(quickCfg(scheme), st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res, err := ses.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	out := append(exportBytes(t, "roundtrip", res), []byte(hygieneKey(res)+"\n")...)
	if err := os.WriteFile(path+".out", out, 0o644); err != nil {
		t.Fatalf("write result: %v", err)
	}
}

// TestFreshProcessRestore checkpoints mid-measurement, restores the
// snapshot in a brand-new process (re-executing this test binary), and
// asserts the child's JSON export is byte-identical to the uninterrupted
// run here — the full Figure-1-style determinism round trip of the paper
// reproduction's quick sweep, for both a StackTrack and a baseline point.
func TestFreshProcessRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	for _, scheme := range []string{SchemeStackTrack, SchemeEpoch} {
		t.Run(scheme, func(t *testing.T) {
			cfg := quickCfg(scheme)
			want := mustRun(t, cfg)
			wantBytes := append(exportBytes(t, "roundtrip", want), []byte(hygieneKey(want)+"\n")...)

			total := totalDecisions(t, cfg)
			ses, err := NewSession(cfg)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			if !ses.RunToDecision(total * 2 / 3) {
				t.Fatal("pause did not fire")
			}
			st, err := ses.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			path := filepath.Join(t.TempDir(), "mid.stsnap")
			if err := snap.WriteFile(path, st); err != nil {
				t.Fatalf("write snapshot: %v", err)
			}

			cmd := exec.Command(os.Args[0], "-test.run", "TestHelperFinishFromSnapshot$", "-test.v")
			cmd.Env = append(os.Environ(),
				helperSnapEnv+"="+path,
				"STSNAP_HELPER_SCHEME="+scheme)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("child process failed: %v\n%s", err, out)
			}
			gotBytes, err := os.ReadFile(path + ".out")
			if err != nil {
				t.Fatalf("read child result: %v", err)
			}
			if !bytes.Equal(wantBytes, gotBytes) {
				t.Errorf("fresh-process restore is not bit-identical to the uninterrupted run (%d vs %d bytes)",
					len(wantBytes), len(gotBytes))
			}
		})
	}
}

// TestFirstUAF: a fresh session of the same run paused at the decision
// FirstUAF names has made no poison read, one more decision makes one,
// and the decision survives a snapshot round trip (stsim -bisect).
func TestFirstUAF(t *testing.T) {
	cfg := quickCfg(SchemeUnsafeFree)
	first, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	first.RunToDecision(math.MaxUint64)
	n, ok := first.FirstUAF()
	if !ok {
		t.Fatal("UnsafeFree run made no poison read before the drain")
	}
	ses, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !ses.RunToDecision(n) || ses.in.uafReads != 0 {
		t.Fatalf("paused at decision %d with %d poison reads, want a clean pause", n, ses.in.uafReads)
	}
	if !ses.RunToDecision(n+1) || ses.in.uafReads == 0 {
		t.Fatalf("decision %d made no poison read", n)
	}
	st, err := ses.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := SessionFromSnapshot(cfg, st)
	if err != nil {
		t.Fatalf("SessionFromSnapshot: %v", err)
	}
	if got, ok := restored.FirstUAF(); !ok || got != n {
		t.Fatalf("restored FirstUAF = %d, %v; want %d, true", got, ok, n)
	}
}
