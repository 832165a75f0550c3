package bench

import (
	"fmt"
	"testing"

	"stacktrack/internal/cost"
	"stacktrack/internal/ds"
	"stacktrack/internal/sched"
	"stacktrack/internal/word"
)

// TestSkipListRetireAudit hooks every skip-list retirement and verifies the
// node is unreachable from every level — the precondition of concurrent
// reclamation (§2: the node must be unlinked before FREE may be called).
// This audit caught the stale-successor linking race and the premature
// level-0-snip retirement; the seeds below include the schedules that
// triggered them.
//
// The audit peeks committed memory, so it only applies to the plain-runner
// schemes whose writes are immediate. On the StackTrack fast path the
// deleter's snips are still buffered in its uncommitted segment when Retire
// is invoked — which is exactly why the runner parks retirements in
// retirePending until that segment commits; the fuzz matrix and poison
// validation cover that path.
func TestSkipListRetireAudit(t *testing.T) {
	audit := func(in *instance) func(*sched.Thread, *ds.SkipList, word.Addr) {
		return func(th *sched.Thread, s *ds.SkipList, node word.Addr) {
			for lvl := 0; lvl < ds.MaxLevel; lvl++ {
				w := in.m.Peek(s.Head() + 3 + word.Addr(lvl))
				var trail []string
				for hops := 0; hops < 1<<20; hops++ {
					p := word.Ptr(w)
					if p == word.Null {
						break
					}
					nx := in.m.Peek(p + 3 + word.Addr(lvl))
					trail = append(trail, fmt.Sprintf("%#x(key=%d,m=%v)", uint64(p), in.m.Peek(p), word.IsMarked(nx)))
					if len(trail) > 6 {
						trail = trail[1:]
					}
					if word.Ptr(nx) == node && p != node {
						panic(fmt.Sprintf(
							"retired %#x (key %d) linked at level %d; trail %v",
							uint64(node), in.m.Peek(node), lvl, trail))
					}
					w = nx
				}
			}
		}
	}
	for _, scheme := range []string{SchemeEpoch, SchemeHazards, SchemeRefCount, SchemeDTA} {
		for _, seed := range []uint64{1, 2, 5, 6} {
			cfg := Config{
				Structure:     StructSkipList,
				Scheme:        scheme,
				Threads:       13,
				Seed:          seed,
				InitialSize:   48,
				KeyRange:      96,
				MutatePct:     60,
				WarmupCycles:  cost.FromSeconds(0.0002),
				MeasureCycles: cost.FromSeconds(0.002),
				MemWords:      1 << 20,
				Validate:      true,
			}
			in, err := newInstance(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds.DebugCheckRetire = audit(in)
			res, err := (&Session{in: in}).Finish()
			ds.DebugCheckRetire = nil
			if err != nil {
				t.Fatal(err)
			}
			if res.UAFReads != 0 {
				t.Fatalf("%s seed %d: use-after-free", scheme, seed)
			}
			want := cfg.InitialSize + int(res.TotalInserts) - int(res.TotalDeletes)
			if res.FinalCount != want {
				t.Fatalf("%s seed %d: conservation %d != %d", scheme, seed, res.FinalCount, want)
			}
		}
	}
}
