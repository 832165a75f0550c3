// Package analyzers holds the repo's custom static checks, written
// against a small go/analysis-shaped harness built on the standard
// library's go/ast and go/parser alone.
//
// Why not golang.org/x/tools/go/analysis: the module has no external
// dependencies and the build environment resolves nothing outside the
// standard library, so the usual multichecker/vettool plumbing is not
// available. The Analyzer/Pass shape below mirrors go/analysis closely
// enough that porting these checks to real vet analyzers is mechanical
// if the dependency ever lands; until then cmd/stlint drives them
// directly and scripts/lint.sh runs it next to the stock go vet.
//
// The checks are purely syntactic (no type information). Each analyzer
// documents the invariant it enforces and how the syntax-level
// approximation relates to it.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Msg)
}

// Pass is the per-package unit of work handed to an analyzer, one
// directory of parsed files at a time (test files included: the
// invariants hold for tests too unless an analyzer opts out).
type Pass struct {
	Fset *token.FileSet
	// Dir is the package directory relative to the module root, e.g.
	// "internal/sched".
	Dir string
	// Files maps file names to parsed files.
	Files []*ast.File

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the repo's analyzer suite, the set cmd/stlint runs.
func All() []*Analyzer {
	return []*Analyzer{StateSem, SimClock, EffectDecl}
}

// Run parses every Go package under root (skipping testdata and hidden
// directories) and applies the analyzers. Findings come back sorted by
// position.
func Run(root string, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	fset := token.NewFileSet()

	dirs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("stlint: %w", err)
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		dirs[dir] = append(dirs[dir], file)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var order []string
	for dir := range dirs {
		order = append(order, dir)
	}
	sort.Strings(order)
	for _, dir := range order {
		for _, a := range analyzers {
			pass := &Pass{Fset: fset, Dir: filepath.ToSlash(dir), Files: dirs[dir], analyzer: a.Name, findings: &findings}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
