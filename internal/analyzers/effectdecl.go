package analyzers

import (
	"go/ast"
	"strings"
)

// EffectDecl enforces effect-annotation coverage in internal/ds: every
// basic block added with control-flow notes (Goto/Returns/SetsResult)
// must also declare its effect sets (Reads/Writes/LoadsPtr/Kills, or
// NoEffects for a block that touches nothing). The dataflow pass —
// and the scanner's elision masks derived from it — only produces facts
// for fully effect-annotated operations; a block that carries branch
// notes but no effect notes silently degrades the whole operation to
// full scans, with nothing failing until someone reads the mask report.
//
// The check is syntactic: inside internal/ds, any call to a method named
// Add or AddUnsupported that passes at least one recognized prog note
// constructor must pass at least one effect constructor too. Bare
// b.Add(blk) legacy calls (no notes at all) are out of scope — they are
// the prog verifier's partial-annotation diagnostic's job.
var EffectDecl = &Analyzer{
	Name: "effectdecl",
	Doc:  "ds blocks built with CFG notes must declare effects (Reads/Writes/LoadsPtr/Kills or NoEffects)",
	Run:  runEffectDecl,
}

// Note constructor names, split by layer.
var (
	cfgNoteNames = map[string]bool{
		"Goto": true, "Returns": true, "SetsResult": true,
	}
	effectNoteNames = map[string]bool{
		"Reads": true, "Writes": true, "LoadsPtr": true, "Kills": true, "NoEffects": true,
	}
)

func runEffectDecl(p *Pass) {
	if p.Dir != "internal/ds" && !strings.HasPrefix(p.Dir, "internal/ds/") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "AddUnsupported") {
				return true
			}
			var hasCFG, hasEffect bool
			for _, arg := range call.Args[min(1, len(call.Args)):] {
				switch classifyNoteArg(arg) {
				case "cfg":
					hasCFG = true
				case "effect":
					hasEffect = true
				}
			}
			if hasCFG && !hasEffect {
				p.Reportf(call.Pos(), "%s call declares control flow but no effects: add Reads/Writes/LoadsPtr/Kills (or NoEffects) so the dataflow pass can build a scan mask", sel.Sel.Name)
			}
			return true
		})
	}
}

// classifyNoteArg reports whether an Add argument is a control-flow note
// ("cfg"), an effect note ("effect"), or neither (""). Notes appear as
// prog.Reads(...) calls (or bare Reads(...) inside package prog itself);
// spread arguments like notes... are invisible to the syntax check and
// classify as neither.
func classifyNoteArg(arg ast.Expr) string {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return ""
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	switch {
	case cfgNoteNames[name]:
		return "cfg"
	case effectNoteNames[name]:
		return "effect"
	}
	return ""
}
