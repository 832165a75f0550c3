package bench

import (
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/ds"
	"stacktrack/internal/prog"
	"stacktrack/internal/sched"
	"stacktrack/internal/workload"
)

// --- Unit tests of the checker itself -----------------------------------------

func op(kind KeyOpKind, ok bool, start, end cost.Cycles) KeyOp {
	return KeyOp{Kind: kind, OK: ok, Start: start, End: end}
}

func TestCheckerAcceptsSequentialHistory(t *testing.T) {
	ops := []KeyOp{
		op(KInsert, true, 0, 1),
		op(KContains, true, 2, 3),
		op(KDelete, true, 4, 5),
		op(KContains, false, 6, 7),
		op(KDelete, false, 8, 9),
	}
	if ok, conclusive := CheckKeyLinearizable(false, ops); !ok || !conclusive {
		t.Fatal("valid sequential history rejected")
	}
}

func TestCheckerRejectsImpossibleRead(t *testing.T) {
	// contains(true) strictly after a successful delete, nothing else.
	ops := []KeyOp{
		op(KDelete, true, 0, 1),
		op(KContains, true, 2, 3),
	}
	if ok, _ := CheckKeyLinearizable(true, ops); ok {
		t.Fatal("non-linearizable history accepted")
	}
}

func TestCheckerRejectsDoubleInsert(t *testing.T) {
	ops := []KeyOp{
		op(KInsert, true, 0, 1),
		op(KInsert, true, 2, 3), // no delete in between
	}
	if ok, _ := CheckKeyLinearizable(false, ops); ok {
		t.Fatal("double successful insert accepted")
	}
}

func TestCheckerUsesOverlapFreedom(t *testing.T) {
	// Two overlapping inserts, one failed: linearizable either way.
	ops := []KeyOp{
		op(KInsert, true, 0, 10),
		op(KInsert, false, 1, 9),
	}
	if ok, _ := CheckKeyLinearizable(false, ops); !ok {
		t.Fatal("overlapping insert pair rejected")
	}
	// The same pair strictly ordered with the failure first is impossible.
	ops = []KeyOp{
		op(KInsert, false, 0, 1),
		op(KInsert, true, 2, 3),
	}
	if ok, _ := CheckKeyLinearizable(false, ops); ok {
		t.Fatal("failed insert before the only successful one accepted")
	}
}

func TestCheckerInconclusiveOnHugeHistories(t *testing.T) {
	ops := make([]KeyOp, maxLinOps+1)
	for i := range ops {
		ops[i] = op(KContains, false, cost.Cycles(i), cost.Cycles(i)+1)
	}
	if _, conclusive := CheckKeyLinearizable(false, ops); conclusive {
		t.Fatal("oversized history should be inconclusive")
	}
}

// TestConfigHistoryCollection: the Config.History knob must capture every
// completed set operation with a sane interval, and the captured histories
// must check out linearizable on a correct scheme.
func TestConfigHistoryCollection(t *testing.T) {
	cfg := smokeCfg(StructList, SchemeStackTrack, 4)
	cfg.History = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histories) == 0 {
		t.Fatal("History=true collected nothing")
	}
	var total uint64
	for k, ops := range res.Histories {
		for _, op := range ops {
			total++
			if op.End < op.Start {
				t.Fatalf("key %d: interval ends before it starts: %+v", k, op)
			}
		}
	}
	// Histories span warmup+measure+drain; the measured window is a
	// subset, so the total can't be smaller.
	if total < res.Ops {
		t.Fatalf("histories hold %d ops, fewer than the %d measured", total, res.Ops)
	}
	initial := InitialKeys(cfg)
	checked := 0
	for k, ops := range res.Histories {
		ok, conclusive := CheckKeyLinearizable(initial[k], ops)
		if !conclusive {
			continue
		}
		checked++
		if !ok {
			t.Fatalf("key %d history not linearizable", k)
		}
	}
	if checked == 0 {
		t.Fatal("no conclusive key histories")
	}
}

// --- End-to-end linearizability of the structures ------------------------------

// TestSetLinearizability runs high-churn workloads and checks every key's
// completed-operation history for linearizability, for every set structure
// under the schemes with the most reuse pressure.
func TestSetLinearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("linearizability checking is slow")
	}
	type rec struct {
		key uint64
		kop KeyOp
	}
	for _, structure := range []string{StructList, StructSkipList, StructHash} {
		for _, scheme := range []string{SchemeStackTrack, SchemeRefCount, SchemeEpoch} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := Config{
					Structure:     structure,
					Scheme:        scheme,
					Threads:       7,
					Seed:          seed,
					InitialSize:   48,
					KeyRange:      96,
					MutatePct:     60,
					WarmupCycles:  cost.FromSeconds(0.0001),
					MeasureCycles: cost.FromSeconds(0.005),
					MemWords:      1 << 20,
					Validate:      true,
				}
				in, err := newInstance(cfg)
				if err != nil {
					t.Fatal(err)
				}
				perThread := make([][]rec, cfg.Threads)
				starts := make([]cost.Cycles, cfg.Threads)
				issued := 0
				for i, d := range in.drivers {
					i := i
					origNext := d.Next
					origDone := d.OnDone
					d.Next = func(th *sched.Thread) (*prog.Op, [3]uint64, bool) {
						// Cap the history so per-key sub-histories stay
						// within the checker's search bound.
						if issued >= 700 {
							return nil, [3]uint64{}, false
						}
						issued++
						starts[i] = th.VTime()
						return origNext(th)
					}
					d.OnDone = func(th *sched.Thread, o *prog.Op, result uint64) {
						var kind KeyOpKind
						switch o.ID {
						case ds.OpInsert:
							kind = KInsert
						case ds.OpDelete:
							kind = KDelete
						default:
							kind = KContains
						}
						perThread[i] = append(perThread[i], rec{
							key: th.Reg(prog.RegArg1),
							kop: KeyOp{Kind: kind, OK: result != 0, Start: starts[i], End: th.VTime()},
						})
						origDone(th, o, result)
					}
				}
				if _, err := (&Session{in: in}).Finish(); err != nil {
					t.Fatal(err)
				}
				initial := map[uint64]bool{}
				for _, k := range workload.SampleKeys(cfg.Seed+1, cfg.InitialSize, cfg.KeyRange) {
					initial[k] = true
				}
				byKey := map[uint64][]KeyOp{}
				for _, recs := range perThread {
					for _, r := range recs {
						byKey[r.key] = append(byKey[r.key], r.kop)
					}
				}
				checked, skipped := 0, 0
				for k, ops := range byKey {
					ok, conclusive := CheckKeyLinearizable(initial[k], ops)
					if !conclusive {
						skipped++
						continue
					}
					checked++
					if !ok {
						t.Fatalf("%s/%s seed %d: key %d history not linearizable (%d ops)",
							structure, scheme, seed, k, len(ops))
					}
				}
				if checked == 0 {
					t.Fatalf("%s/%s seed %d: no key histories checked (skipped %d)", structure, scheme, seed, skipped)
				}
			}
		}
	}
}
