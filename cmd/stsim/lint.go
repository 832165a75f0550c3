package main

// stsim -lint: build every data structure's compiled operations and
// re-run the prog IR verifier over them. Build already panics on a
// failing verification, so a clean report is the expected outcome; the
// value is the coverage listing (which ops carry full control-flow
// annotations) and a non-panicking exit code for scripts.
//
// stsim -lint -dataflow additionally runs the pointer-taint + liveness
// pass over every operation and prints each one's fact summary and scan
// track mask. An operation whose facts are incomplete, or whose mask
// degenerates to tracking everything (Top everywhere — the pass learned
// nothing), fails the lint: elision would silently fall back to full
// scans, which is exactly the regression this mode exists to catch.

import (
	"fmt"
	"os"
	"strings"

	"stacktrack/internal/alloc"
	"stacktrack/internal/ds"
	"stacktrack/internal/mem"
	"stacktrack/internal/prog"
	"stacktrack/internal/prog/dataflow"
)

// lintOps builds every structure's compiled operations.
func lintOps() []*prog.Op {
	newAlloc := func() *alloc.Allocator {
		return alloc.New(mem.New(mem.Config{Words: 1 << 20}))
	}
	var ops []*prog.Op
	l := ds.NewList(newAlloc())
	ops = append(ops, l.OpContains, l.OpInsert, l.OpDelete)
	s := ds.NewSkipList(newAlloc())
	ops = append(ops, s.OpContains, s.OpInsert, s.OpDelete)
	h := ds.NewHashTable(newAlloc(), 32)
	ops = append(ops, h.OpContains, h.OpInsert, h.OpDelete)
	q := ds.NewQueue(newAlloc())
	ops = append(ops, q.OpEnqueue, q.OpDequeue, q.OpPeek)
	r := ds.NewRBTree(newAlloc())
	ops = append(ops, r.OpSearch)
	return ops
}

// runLint verifies the IR of every structure's operations and returns
// the process exit code. With dataflowReport it also prints (and gates
// on) the dataflow facts behind scan elision.
func runLint(dataflowReport bool) int {
	ops := lintOps()

	bad := 0
	for _, op := range ops {
		diags := prog.VerifyOp(op)
		status := "ok"
		if !op.Annotated() {
			status = "ok (label checks only: missing CFG annotations)"
		}
		if len(diags) > 0 {
			status = fmt.Sprintf("%d diagnostic(s)", len(diags))
			bad++
		}
		fmt.Printf("%-20s %2d blocks  %s\n", op.Name, len(op.Blocks), status)
		for _, d := range diags {
			fmt.Printf("    %s\n", d)
		}
	}
	if dataflowReport {
		fmt.Println()
		bad += runDataflowLint(ops)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "stsim: %d operation(s) failed IR verification\n", bad)
		return 1
	}
	fmt.Printf("stsim: %d operations verified clean\n", len(ops))
	return 0
}

// runDataflowLint prints every operation's dataflow fact summary and
// per-block report, returning the number of failing operations.
func runDataflowLint(ops []*prog.Op) int {
	bad := 0
	for _, op := range ops {
		f := dataflow.Analyze(op)
		fmt.Println(f.Summary())
		switch {
		case !f.Complete:
			fmt.Printf("    FAIL: no dataflow facts (%s); the scanner falls back to full scans\n", f.Reason)
			bad++
		case f.TopEverywhere():
			fmt.Println("    FAIL: every location is Top — the annotations taught the pass nothing")
			bad++
		default:
			for _, line := range strings.SplitAfter(f.Report(), "\n") {
				if line != "" {
					fmt.Print("    " + line)
				}
			}
		}
	}
	return bad
}
