package explore

import (
	"runtime"
	"testing"
	"unsafe"

	"stacktrack/internal/alloc"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/rng"
	"stacktrack/internal/sched"
	"stacktrack/internal/topo"
)

// scripted is a policy that deviates on demand: Pick takes candidate 1
// whenever pick is set (the default rule takes 0 on an idle scheduler),
// and Preempt forces a switch whenever pre is set.
type scripted struct{ pick, pre bool }

func (p *scripted) Pick(s *sched.Scheduler, cands []int) int {
	if p.pick {
		return 1
	}
	return s.DefaultPick(cands)
}

func (p *scripted) Preempt(s *sched.Scheduler, ctx int) bool {
	return p.pre || s.DefaultPreempt(ctx)
}

// idleScheduler is a scheduler with two threads on two contexts that
// never runs: every occupant clock is 0, so the default rule picks
// candidate 0 and never preempts.
func idleScheduler() (*sched.Scheduler, []int) {
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	sc := sched.NewScheduler(m, topo.Haswell8Way(), 1)
	for i := 0; i < 2; i++ {
		sc.AddThread(sched.NewThread(i, m, a, uint64(i)+1), nil)
	}
	return sc, []int{sc.Threads()[0].HWContext(), sc.Threads()[1].HWContext()}
}

// TestRecordingChunkBoundaries fills the chunked log to each count around
// a chunk boundary. Entries are pick deviations, except every fifth,
// which is a preemption-only deviation; the entry that fills each chunk
// also takes a forced preemption, which merges through the recording's
// pointer into the chunk's last slot. A default decision, which records
// nothing, follows each entry.
func TestRecordingChunkBoundaries(t *testing.T) {
	sc, cands := idleScheduler()
	for _, entries := range []int{0, 1, recordChunk - 1, recordChunk, recordChunk + 1, 3 * recordChunk} {
		for _, start := range []uint64{0, 5000} {
			pol := &scripted{}
			r := NewRecording(pol, start)
			var want []Decision
			n := start
			for len(want) < entries {
				if len(want)%5 == 4 {
					// Default pick, forced preemption: the entry is
					// created by Preempt itself.
					*pol = scripted{pre: true}
					r.Pick(sc, cands)
					r.Preempt(sc, cands[0])
					want = append(want, Decision{N: n, Pick: -1, Pre: 1, Tid: int16(sc.OccupantID(cands[0]))})
				} else {
					full := len(want)%recordChunk == recordChunk-1
					*pol = scripted{pick: true, pre: full}
					r.Pick(sc, cands)
					r.Preempt(sc, cands[1])
					d := Decision{N: n, Pick: 1, Pre: -1, Tid: int16(sc.OccupantID(cands[1]))}
					if full {
						d.Pre = 1
					}
					want = append(want, d)
				}
				n++
				// A decision that follows the default rule records nothing.
				*pol = scripted{}
				r.Pick(sc, cands)
				r.Preempt(sc, cands[0])
				n++
			}
			got := r.Decisions()
			if entries == 0 {
				if got != nil {
					t.Fatalf("empty recording returned %d decisions, want nil", len(got))
				}
			} else if len(got) != len(want) || cap(got) != len(want) {
				t.Fatalf("%d entries from %d: got len %d cap %d", entries, start, len(got), cap(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d entries from %d: entry %d = %+v, want %+v", entries, start, i, got[i], want[i])
				}
			}
			if r.Steps() != n {
				t.Fatalf("%d entries from %d: %d steps, want %d", entries, start, r.Steps(), n)
			}
		}
	}
}

// refRecordChunk is how many Decisions one chunk of refRecording holds.
const refRecordChunk = 1024

// refRecording is the reference model of Recording: the chunked log of
// 16-byte Decisions it replaced. An entry is appended whole to the last
// chunk, a Preempt deviation overwrites its Pre through a pointer, and
// Decisions concatenates the chunks.
type refRecording struct {
	inner  sched.Policy
	chunks [][]Decision
	n      uint64
	cur    *Decision
}

func newRefRecording(inner sched.Policy, n uint64) *refRecording {
	return &refRecording{inner: inner, n: n}
}

func (r *refRecording) Decisions() []Decision {
	var flat []Decision
	for _, c := range r.chunks {
		flat = append(flat, c...)
	}
	return flat
}

func (r *refRecording) record(d Decision) {
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == refRecordChunk {
		r.chunks = append(r.chunks, make([]Decision, 0, refRecordChunk))
		last++
	}
	c := append(r.chunks[last], d)
	r.chunks[last] = c
	r.cur = &c[len(c)-1]
}

func (r *refRecording) Pick(s *sched.Scheduler, cands []int) int {
	n := r.n
	r.n++
	r.cur = nil
	got := r.inner.Pick(s, cands)
	def := s.DefaultPick(cands)
	if got < 0 || got >= len(cands) {
		got = def
	}
	if got != def {
		r.record(Decision{N: n, Pick: int32(got), Pre: -1, Tid: int16(s.OccupantID(cands[got]))})
	}
	return got
}

func (r *refRecording) Preempt(s *sched.Scheduler, ctx int) bool {
	got := r.inner.Preempt(s, ctx)
	if got != s.DefaultPreempt(ctx) {
		if r.cur == nil {
			r.record(Decision{N: r.n - 1, Pick: -1, Pre: -1, Tid: int16(s.OccupantID(ctx))})
		}
		if got {
			r.cur.Pre = 1
		} else {
			r.cur.Pre = 0
		}
	}
	return got
}

// puppet is a policy whose answers the test sets before each call: Pick
// returns pick (the default rule's choice when negative), Preempt
// returns pre.
type puppet struct {
	pick int
	pre  bool
}

func (p *puppet) Pick(s *sched.Scheduler, cands []int) int {
	if p.pick < 0 {
		return s.DefaultPick(cands)
	}
	return p.pick
}

func (p *puppet) Preempt(*sched.Scheduler, int) bool { return p.pre }

// wideScheduler is an idle scheduler on a 64-context topology with
// threads 0..threads-1 on contexts 0..threads-1; the other contexts are
// empty (occupant -1). The default rule picks candidate 0, and thread 0
// has used up its timeslice, so the default rule preempts context 0 and
// no other.
func wideScheduler(threads int) *sched.Scheduler {
	tp := topo.Haswell8Way()
	tp.Cores = sched.MaxContexts / tp.ThreadsPerCore
	m := mem.New(mem.Config{Words: 1 << 20})
	a := alloc.New(m)
	sc := sched.NewScheduler(m, tp, 1)
	for i := 0; i < threads; i++ {
		sc.AddThread(sched.NewThread(i, m, a, uint64(i)+1), nil)
	}
	sc.Threads()[0].Charge(cost.TimesliceQuantum)
	return sc
}

// recStep is one scheduler iteration driven through both recordings:
// skip decisions that follow the default rule, then a Pick, then each
// Preempt call in pres.
type recStep struct {
	skip uint64
	// full drives the 64-thread scheduler, otherwise the 2-thread one.
	full bool
	// pick is the candidate the policy picks; -1 follows the default.
	pick int
	pres []recPreempt
}

// recPreempt is one Preempt call: on context ctx, answering pre.
type recPreempt struct {
	ctx int
	pre bool
}

// recordingHarness holds the schedulers a recStep runs against.
type recordingHarness struct {
	full, sparse *sched.Scheduler
	cands        []int
}

func newRecordingHarness() *recordingHarness {
	h := &recordingHarness{full: wideScheduler(mem.MaxThreads), sparse: wideScheduler(2)}
	for c := 0; c < sched.MaxContexts; c++ {
		h.cands = append(h.cands, c)
	}
	return h
}

// drive runs steps through a Recording and a refRecording that both start
// at decision start, fails the test unless both logs and step counts are
// identical, and returns the log.
func (h *recordingHarness) drive(t *testing.T, name string, start uint64, steps []recStep) []Decision {
	t.Helper()
	pol := &puppet{}
	got, want := NewRecording(pol, start), newRefRecording(pol, start)
	for _, st := range steps {
		// Decisions that follow the default rule record nothing, so
		// skipping them only advances both decision counters.
		got.n += st.skip
		want.n += st.skip
		s := h.sparse
		if st.full {
			s = h.full
		}
		pol.pick = st.pick
		if g, w := got.Pick(s, h.cands), want.Pick(s, h.cands); g != w {
			t.Fatalf("%s: Pick returned %d, reference %d", name, g, w)
		}
		for _, p := range st.pres {
			pol.pre = p.pre
			if g, w := got.Preempt(s, p.ctx), want.Preempt(s, p.ctx); g != w {
				t.Fatalf("%s: Preempt returned %v, reference %v", name, g, w)
			}
		}
	}
	g, w := got.Decisions(), want.Decisions()
	if len(g) != len(w) || cap(g) != len(w) {
		t.Fatalf("%s: got len %d cap %d, reference len %d", name, len(g), cap(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: entry %d = %+v, reference %+v", name, i, g[i], w[i])
		}
	}
	if got.Steps() != want.n {
		t.Fatalf("%s: %d steps, reference %d", name, got.Steps(), want.n)
	}
	return w
}

// recSkips are the default-decision runs between deviations: N gaps of 1,
// 0xFFFE, 0xFFFF (the first escaped gap), 0x10000, 2^32 and beyond.
var recSkips = []uint64{0, 0xFFFD, 0xFFFE, 0xFFFF, 1<<32 - 1, 1 << 32, 1<<40 + 12345}

// randomSteps draws n steps: mostly one-word entries, with every skip of
// recSkips, picks on both schedulers up to candidate 63 (thread 63 on
// the full one, an empty context on the sparse one), and zero to three
// Preempt calls that set Pre to 0 (context 0, whose quantum is up), to 1
// (context 1), or leave it (context 1 answering the default).
func randomSteps(r *rng.Rand, n int) []recStep {
	steps := make([]recStep, n)
	for i := range steps {
		st := &steps[i]
		if r.Intn(8) == 0 {
			st.skip = recSkips[r.Intn(len(recSkips))]
		}
		st.full = r.Intn(2) == 0
		switch r.Intn(4) {
		case 0:
			st.pick = -1
		case 1:
			st.pick = sched.MaxContexts - 1
		default:
			st.pick = r.Intn(sched.MaxContexts)
		}
		for k := r.Intn(4); k > 0; k-- {
			switch r.Intn(3) {
			case 0:
				st.pres = append(st.pres, recPreempt{ctx: 0, pre: false})
			case 1:
				st.pres = append(st.pres, recPreempt{ctx: 1, pre: true})
			default:
				st.pres = append(st.pres, recPreempt{ctx: 1, pre: false})
			}
		}
	}
	return steps
}

// TestRecordingMatchesReference drives the packed Recording and the
// reference []Decision model through random Pick/Preempt sequences and
// requires identical logs. It checks that the sequences reach every
// field's extremes, every gap size, and a Preempt merging into an
// escaped entry.
func TestRecordingMatchesReference(t *testing.T) {
	h := newRecordingHarness()
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, start := range []uint64{0, 5000} {
			log := h.drive(t, "random", start, randomSteps(rng.New(seed), 3*recordChunk))
			prev := start
			for i, d := range log {
				gap := d.N - prev
				prev = d.N
				if i == 0 {
					continue
				}
				seen["pick -1"] = seen["pick -1"] || d.Pick == -1
				seen["pick 63"] = seen["pick 63"] || d.Pick == 63
				seen["pre -1"] = seen["pre -1"] || d.Pre == -1
				seen["pre 0"] = seen["pre 0"] || d.Pre == 0
				seen["pre 1"] = seen["pre 1"] || d.Pre == 1
				seen["tid -1"] = seen["tid -1"] || d.Tid == -1
				seen["tid 0"] = seen["tid 0"] || d.Tid == 0
				seen["tid 63"] = seen["tid 63"] || d.Tid == 63
				seen["gap 1"] = seen["gap 1"] || gap == 1
				seen["gap 0xFFFE"] = seen["gap 0xFFFE"] || gap == 0xFFFE
				seen["gap 0xFFFF"] = seen["gap 0xFFFF"] || gap == 0xFFFF
				seen["gap 2^32"] = seen["gap 2^32"] || gap == 1<<32
				seen["gap > 2^32"] = seen["gap > 2^32"] || gap > 1<<32
				seen["preempt into escaped entry"] = seen["preempt into escaped entry"] || gap >= escape && d.Pre >= 0
			}
		}
	}
	for _, want := range []string{
		"pick -1", "pick 63", "pre -1", "pre 0", "pre 1", "tid -1", "tid 0", "tid 63",
		"gap 1", "gap 0xFFFE", "gap 0xFFFF", "gap 2^32", "gap > 2^32", "preempt into escaped entry",
	} {
		if !seen[want] {
			t.Errorf("random sequences never produced %s", want)
		}
	}
}

// TestRecordingEscapeAtChunkEnd fills a chunk with one-word entries until
// free slots remain, then records an escaped entry (which needs three
// words) and merges a Preempt into it: with one or two slots free it must
// start a new chunk, with three it must just fit.
func TestRecordingEscapeAtChunkEnd(t *testing.T) {
	h := newRecordingHarness()
	for free := 1; free <= 4; free++ {
		for _, start := range []uint64{0, 5000} {
			steps := make([]recStep, 0, recordChunk+2)
			for i := 0; i < recordChunk-free; i++ {
				steps = append(steps, recStep{full: true, pick: 1 + i%(sched.MaxContexts-1)})
			}
			for _, skip := range []uint64{0xFFFE, 1 << 32} {
				steps = append(steps, recStep{skip: skip, full: true, pick: 5,
					pres: []recPreempt{{ctx: 0, pre: false}, {ctx: 1, pre: true}}})
			}
			steps = append(steps, recStep{full: true, pick: 2})
			h.drive(t, "escape at chunk end", start, steps)
		}
	}
}

// TestLogEntrySizes pins the width of the per-deviation records: the flat
// log and ddmin's candidate subsets each hold one Decision per deviation,
// and every replay keeps a head of Applied entries.
func TestLogEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(Decision{}); got != 16 {
		t.Errorf("Decision is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Applied{}); got != 24 {
		t.Errorf("Applied is %d bytes, want 24", got)
	}
}

// maxRecordBytesPerDecision bounds the Go heap a recorded default random
// walk allocates per scheduling decision, set-up included. Packed 4-byte
// words decoded once into the 16-byte list measure about 15 B; chunks of
// 16-byte Decisions copied into the list measure about 24 B, 32-byte
// Decisions about 48 B, and a log that regrows one slice about 146 B.
const maxRecordBytesPerDecision = 18

func TestRecordAllocationPerDecision(t *testing.T) {
	Record(RunConfig{}) // warm package-level state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Record(RunConfig{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perDecision := float64(after.TotalAlloc-before.TotalAlloc) / float64(out.Steps)
	t.Logf("%.1f B/decision over %d decisions, %d deviations", perDecision, out.Steps, len(out.Log.Decisions))
	if perDecision > maxRecordBytesPerDecision {
		t.Fatalf("recorded run allocated %.1f B per decision, bound %d", perDecision, maxRecordBytesPerDecision)
	}
}

// BenchmarkRecord is one default recorded run: list, StackTrack, 7
// threads, random walk.
func BenchmarkRecord(b *testing.B) {
	b.ReportAllocs()
	var steps uint64
	for i := 0; i < b.N; i++ {
		out, err := Record(RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		steps += out.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/decision")
}

// BenchmarkReplayLog replays one default recorded log (list, StackTrack, 7
// threads, random walk): the path every ddmin oracle run and every
// narrative takes, Applied head included.
func BenchmarkReplayLog(b *testing.B) {
	rec, err := Record(RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := ReplayLog(rec.Log, 0)
		if err != nil {
			b.Fatal(err)
		}
		if out.Verdict.Failed != rec.Verdict.Failed {
			b.Fatalf("replay verdict %s, recorded %s", out.Verdict, rec.Verdict)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*rec.Steps), "ns/decision")
}
