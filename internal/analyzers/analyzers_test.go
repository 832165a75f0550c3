package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOn applies one analyzer to a single synthetic file placed in dir.
func runOn(t *testing.T, a *Analyzer, dir, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var findings []Finding
	a.Run(&Pass{Fset: fset, Dir: dir, Files: []*ast.File{f}, analyzer: a.Name, findings: &findings})
	return findings
}

func wantFindings(t *testing.T, fs []Finding, n int, substr string) {
	t.Helper()
	if len(fs) != n {
		t.Fatalf("want %d finding(s), got %d: %v", n, len(fs), fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, substr) {
			t.Fatalf("finding %q should mention %q", f.Msg, substr)
		}
	}
}

// --- statesem ----------------------------------------------------------------

func TestStateSemFlagsMapField(t *testing.T) {
	fs := runOn(t, StateSem, "internal/foo", `package foo
type FooState struct {
	Good []int
	Bad  map[int]string
}`)
	wantFindings(t, fs, 1, "map field")
}

func TestStateSemFlagsPointerField(t *testing.T) {
	fs := runOn(t, StateSem, "internal/foo", `package foo
type thing struct{}
type FooState struct{ Bad *thing }`)
	wantFindings(t, fs, 1, "pointer field")
}

func TestStateSemAllowsNestedStatePointers(t *testing.T) {
	fs := runOn(t, StateSem, "internal/foo", `package foo
type SubState struct{ N int }
type ScanSnap struct{ N int }
type FooState struct {
	Sub  *SubState
	Snap *ScanSnap
}`)
	wantFindings(t, fs, 0, "")
}

func TestStateSemDocumentedCloneExempts(t *testing.T) {
	fs := runOn(t, StateSem, "internal/foo", `package foo
type FooState struct{ M map[int]int }

// Clone deep-copies the state, including M.
func (s *FooState) Clone() *FooState {
	out := *s
	out.M = make(map[int]int, len(s.M))
	for k, v := range s.M {
		out.M[k] = v
	}
	return &out
}`)
	wantFindings(t, fs, 0, "")
}

func TestStateSemUndocumentedCloneDoesNotExempt(t *testing.T) {
	fs := runOn(t, StateSem, "internal/foo", `package foo
type FooState struct{ M map[int]int }
func (s *FooState) Clone() *FooState { return s }`)
	wantFindings(t, fs, 1, "map field")
}

func TestStateSemIgnoresUnexportedAndNonState(t *testing.T) {
	fs := runOn(t, StateSem, "internal/foo", `package foo
type scanState struct{ m map[int]int }
type Config struct{ m map[int]int }`)
	wantFindings(t, fs, 0, "")
}

// --- simclock ----------------------------------------------------------------

func TestSimClockFlagsWallClockInSimPackage(t *testing.T) {
	fs := runOn(t, SimClock, "internal/sched", `package sched
import "time"
func f() time.Time { return time.Now() }`)
	wantFindings(t, fs, 1, "time.Now")
}

func TestSimClockFlagsMathRandImport(t *testing.T) {
	fs := runOn(t, SimClock, "internal/mem", `package mem
import "math/rand"
var _ = rand.Int`)
	wantFindings(t, fs, 1, "math/rand")
}

func TestSimClockAllowsDurationTypes(t *testing.T) {
	fs := runOn(t, SimClock, "internal/bench", `package bench
import "time"
type Config struct{ Budget time.Duration }
func f(d time.Duration) time.Duration { return d * time.Millisecond }`)
	wantFindings(t, fs, 0, "")
}

func TestSimClockIgnoresHostPackages(t *testing.T) {
	fs := runOn(t, SimClock, "internal/explore", `package explore
import "time"
func f() time.Time { return time.Now() }`)
	wantFindings(t, fs, 0, "")
}

func TestSimClockSeesAliasedImport(t *testing.T) {
	fs := runOn(t, SimClock, "internal/core", `package core
import clock "time"
func f() clock.Time { return clock.Now() }`)
	wantFindings(t, fs, 1, "time.Now")
}

// --- suite over the real tree ------------------------------------------------

// TestRepoIsClean runs the full suite over the module root: the
// analyzers are enforced in CI, so the tree must stay clean.
func TestRepoIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// --- effectdecl --------------------------------------------------------------

func TestEffectDeclFlagsMissingEffects(t *testing.T) {
	fs := runOn(t, EffectDecl, "internal/ds", `package ds
func build(b *Builder) {
	b.Add(blk, prog.Returns(), prog.SetsResult())
}`)
	wantFindings(t, fs, 1, "no effects")
}

func TestEffectDeclAcceptsDeclaredEffects(t *testing.T) {
	fs := runOn(t, EffectDecl, "internal/ds", `package ds
func build(b *Builder) {
	b.Add(blk, prog.Returns(), prog.Reads(prog.F(0)))
	b.Add(blk2, prog.Goto(&l), prog.NoEffects())
	b.AddUnsupported(blk3, prog.Returns(), prog.Writes(prog.R(0)), prog.Kills(prog.R(0)))
}`)
	wantFindings(t, fs, 0, "")
}

func TestEffectDeclIgnoresLegacyBareAdds(t *testing.T) {
	fs := runOn(t, EffectDecl, "internal/ds", `package ds
func build(b *Builder) {
	b.Add(blk)
}`)
	wantFindings(t, fs, 0, "")
}

func TestEffectDeclScopedToDS(t *testing.T) {
	fs := runOn(t, EffectDecl, "internal/prog", `package prog
func build(b *Builder) {
	b.Add(blk, Returns())
}`)
	wantFindings(t, fs, 0, "")
}
