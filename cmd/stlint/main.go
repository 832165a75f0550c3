// Command stlint runs the repo's custom static analyzers (package
// internal/analyzers) over the source tree:
//
//	statesem      exported *State structs stay value-semantic
//	simclock      no wall-clock / math/rand inside the simulator
//	effectdecl    ds blocks declare the register/frame effects they have
//
// Usage:
//
//	stlint [-root dir] [-list] [analyzer ...]
//
// With no analyzer arguments the full suite runs. Exit status is 1 when
// any finding is reported, so CI can gate on it (scripts/lint.sh runs it
// next to gofmt and the stock go vet).
package main

import (
	"flag"
	"fmt"
	"os"

	"stacktrack/internal/analyzers"
)

func main() {
	root := flag.String("root", ".", "module root to analyze")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if args := flag.Args(); len(args) > 0 {
		byName := map[string]*analyzers.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range args {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "stlint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	findings, err := analyzers.Run(*root, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "stlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
