package main

// Layer microbenchmarks. Each calls only exported functions of one
// layer, through testing.Benchmark, and reports host time and Go
// allocations per operation.

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"stacktrack/internal/alloc"
	"stacktrack/internal/bench"
	"stacktrack/internal/cost"
	"stacktrack/internal/mem"
	"stacktrack/internal/sched"
	"stacktrack/internal/snap"
	"stacktrack/internal/topo"
	"stacktrack/internal/word"
)

// microBenchtime keeps the eight microbenchmarks near two seconds in
// all, so they fit beside a traced pass in one run.
const microBenchtime = "100ms"

// A micro reports time per operation, in milliseconds when ms is set
// and nanoseconds otherwise, and Go allocations per operation. A
// benchmark that sets *ops reports that many operations for its last
// timed call in place of b.N (decisions of a scheduler run).
type micro struct {
	time, allocs string
	ms           bool
	fn           func(b *testing.B, ops *uint64)
}

var micros = []micro{
	{"mem.read_plain_ns", "mem.read_plain_allocs", false, benchReadPlain},
	{"mem.write_plain_ns", "mem.write_plain_allocs", false, benchWritePlain},
	{"mem.tx_segment_ns", "mem.tx_segment_allocs", false, benchTxSegment},
	{"alloc.alloc_free_ns", "alloc.alloc_free_allocs", false, benchAllocFree},
	{"sched.decision_ns_8t", "sched.decision_allocs_8t", false, func(b *testing.B, ops *uint64) { benchDecisions(b, ops, 8) }},
	{"sched.decision_ns_24t", "sched.decision_allocs_24t", false, func(b *testing.B, ops *uint64) { benchDecisions(b, ops, 24) }},
	{"snap.snapshot_encode_ms", "snap.snapshot_encode_allocs", true, benchSnapshotEncode},
	{"snap.decode_restore_ms", "snap.decode_restore_allocs", true, benchDecodeRestore},
}

// runMicros runs every microbenchmark and returns its metrics.
func runMicros() (map[string]float64, error) {
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", microBenchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range micros {
		var ops uint64
		var failed error
		r := testing.Benchmark(func(b *testing.B) {
			defer func() {
				if v := recover(); v != nil {
					failed = fmt.Errorf("%s: %v", m.time, v)
				}
			}()
			ops = 0
			m.fn(b, &ops)
		})
		if failed != nil {
			return nil, failed
		}
		n := float64(r.N)
		if ops > 0 {
			n = float64(ops)
		}
		if n == 0 { // b.Fatal leaves a zero result
			return nil, fmt.Errorf("%s: benchmark failed", m.time)
		}
		perOp := float64(r.T.Nanoseconds()) / n
		if m.ms {
			perOp /= 1e6
		}
		out[m.time] = perOp
		out[m.allocs] = float64(r.MemAllocs) / n
	}
	return out, nil
}

const microWords = 1 << 12

func warmMemory() *mem.Memory {
	m := mem.New(mem.Config{Words: 1 << 14})
	for a := word.Addr(0); a < microWords; a++ {
		m.WritePlain(0, a, uint64(a))
	}
	return m
}

func benchReadPlain(b *testing.B, _ *uint64) {
	m := warmMemory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadPlain(1, word.Addr(i)&(microWords-1))
	}
}

func benchWritePlain(b *testing.B, _ *uint64) {
	m := warmMemory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WritePlain(0, word.Addr(i)&(microWords-1), uint64(i))
	}
}

// benchTxSegment is one short hardware transaction: begin, four reads,
// a buffered write, commit.
func benchTxSegment(b *testing.B, _ *uint64) {
	m := warmMemory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin(0)
		base := word.Addr(i) & (1<<10 - 8)
		for k := word.Addr(0); k < 4; k++ {
			if _, _, r := m.TxRead(tx, base+k); r != mem.NoAbort {
				b.Fatal(r)
			}
		}
		if _, r := m.TxWrite(tx, base, uint64(i)); r != mem.NoAbort {
			b.Fatal(r)
		}
		if r := m.Commit(tx); r != mem.NoAbort {
			b.Fatal(r)
		}
	}
}

func benchAllocFree(b *testing.B, _ *uint64) {
	a := alloc.New(mem.New(mem.Config{Words: 1 << 16}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(0, a.Alloc(0, 4))
	}
}

// chargeStepper advances its thread by a fixed cost per step: the
// decision loop with no simulated work behind it.
type chargeStepper struct{ cost cost.Cycles }

func (s chargeStepper) Step(t *sched.Thread) bool {
	t.Charge(s.cost)
	return false
}

// benchDecisions runs the scheduler over threads threads; beyond 16 the
// 8-core machine is oversubscribed and rotates its queues.
func benchDecisions(b *testing.B, ops *uint64, threads int) {
	m := mem.New(mem.Config{Words: 1 << 18})
	a := alloc.New(m)
	sc := sched.NewScheduler(m, topo.Haswell8Way(), 1)
	for i := 0; i < threads; i++ {
		sc.AddThread(sched.NewThread(i, m, a, uint64(i)+100), chargeStepper{cost: cost.Cycles(90 + 7*i)})
	}
	horizon := cost.Cycles(10_000)
	sc.Run(horizon)
	start := sc.Decisions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon += 5_000
		sc.Run(horizon)
	}
	*ops = sc.Decisions() - start
}

// snapConfig is a list run checkpointed mid-measurement.
var snapConfig = bench.Config{
	Structure: bench.StructList, Scheme: bench.SchemeStackTrack, Threads: 8,
	MemWords: 1 << 20, WarmupCycles: cost.FromSeconds(0.0002), MeasureCycles: cost.FromSeconds(0.002),
}

func pausedSession(b *testing.B) *bench.Session {
	s, err := bench.NewSession(snapConfig)
	if err != nil {
		b.Fatal(err)
	}
	if !s.RunToDecision(200_000) {
		b.Fatal("run ended before the checkpoint")
	}
	return s
}

func benchSnapshotEncode(b *testing.B, _ *uint64) {
	s := pausedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf, st); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeRestore(b *testing.B, _ *uint64) {
	st, err := pausedSession(b).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, st); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := snap.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.SessionFromSnapshot(snapConfig, st); err != nil {
			b.Fatal(err)
		}
	}
}
