package main

// The traced run: the benchmark's own spans (workload → experiment →
// point or run), kept in memory and written as Chrome trace-event JSON,
// and a CPU profile whose samples are attributed to the repo's modules.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// spanLog holds the spans of a traced run. A nil *spanLog records
// nothing, so untraced runs pay for no spans.
type spanLog struct {
	epoch  time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs since the run started
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// add records a complete span. Spans nest by time on one track; the
// parent of a run is the experiment whose interval contains it.
func (l *spanLog) add(cat, name string, start, end time.Time, decisions, ops uint64) {
	if l == nil {
		return
	}
	l.events = append(l.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: 1,
		Ts:   float64(start.Sub(l.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: map[string]uint64{"decisions": decisions, "ops": ops},
	})
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{l.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// withCPUProfile runs fn with the Go CPU profiler writing to path.
func withCPUProfile(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

// layers are the repo's modules as they show in host profiles. The
// scheduler splits into its decision loop (the Scheduler methods) and
// everything else it exports to the threads (Thread and Frame).
var layers = []string{
	"sched.loop", "sched.thread", "mem", "alloc", "core", "prog", "ds", "reclaim",
	"metrics", "explore", "bench", "workload", "rng", "word", "runtime", "other",
}

// phases attribute a sample by its ancestors: building a machine is
// setup, draining and assembling its result is drain.
var phases = []string{"setup", "simulate", "drain"}

// minLayerSamples is the sample count below which a layer's share is
// reported as unresolved: at 100 Hz, fewer than 50 samples is half a
// second of CPU and too noisy to compare.
const minLayerSamples = 50

// samplePeriod is runtime/pprof's CPU sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond

const modulePrefix = "stacktrack/internal/"

// layerOf maps a profiled function to its layer by module name.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "other"
	}
	mod := rest
	if i := strings.IndexAny(mod, "./"); i >= 0 {
		mod = mod[:i]
	}
	if mod == "sched" {
		if strings.HasPrefix(rest, "sched.(*Scheduler)") || strings.HasPrefix(rest, "sched.(*hwContext)") {
			return "sched.loop"
		}
		return "sched.thread"
	}
	for _, l := range layers {
		if l == mod {
			return l
		}
	}
	return "other"
}

// phaseOf attributes a stack (leaf first) to a phase by its ancestors.
// Only the functions themselves count, not closures they created: those
// run later, inside the simulation.
func phaseOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case modulePrefix + "bench.newInstance":
			return "setup"
		case modulePrefix + "bench.(*instance).finish":
			return "drain"
		}
	}
	return "simulate"
}

// profileTable is a CPU profile's host time by layer (leaf frame) and by
// phase (ancestor frames).
type profileTable struct {
	total time.Duration
	layer map[string]time.Duration
	phase map[string]time.Duration
}

func (t *profileTable) samples(d time.Duration) float64 { return float64(d / samplePeriod) }

// profileLayers attributes the samples of a CPU profile of the running
// binary, through `go tool pprof -traces`.
func profileLayers(profile string) (*profileTable, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.Bytes())
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads the output of `go tool pprof -traces`: after a
// header, samples separated by dashed lines, each a value and the leaf
// function on the first line and one caller per following line.
// Inlined frames carry an "(inline)" suffix and count as frames.
func parseTraces(r io.Reader) (*profileTable, error) {
	t := &profileTable{layer: map[string]time.Duration{}, phase: map[string]time.Duration{}}
	var (
		inSample bool
		value    time.Duration
		stack    []string
	)
	flush := func() {
		if len(stack) > 0 {
			t.total += value
			t.layer[layerOf(stack[0])] += value
			t.phase[phaseOf(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		f := strings.Fields(line)
		if !inSample || len(f) == 0 || strings.HasSuffix(f[0], ":") {
			continue // header, blank, or a sample label
		}
		if len(stack) == 0 {
			if len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: sample line without a function: %q", line)
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			value = d
			f = f[1:]
		}
		stack = append(stack, f[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if t.total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return t, nil
}
