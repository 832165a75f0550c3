package prog

// Static verification of the compiled operation IR. The builder's blocks
// are opaque Go closures, so control flow is declared rather than
// inferred: each Add may carry Notes (Goto/Returns/SetsResult) naming the
// block's possible branch targets and effects. When every block of an
// operation is annotated the verifier walks the resulting CFG; without
// full annotation only the label-binding checks run (legacy mode), so
// ad-hoc test operations keep working unannotated.
//
// The checks mirror what a compiler's IR validator would enforce:
//
//   - every label is bound, and bound in range (an unbound label still
//     carries its -2 poison; a label bound after the last Add points one
//     past the end);
//   - no block branches out of range;
//   - every block has an exit (a successor or a return) and every block
//     is reachable from the entry;
//   - R0 is written on all paths to return — the calling convention says
//     the result is in R0 when the final block ends;
//   - atomic regions are entered only at their first block: a branch into
//     the middle of a programmer-defined transactional region would skip
//     the region entry the split runtime keys on (§5.5).

import (
	"fmt"
	"strings"
)

// Diagnostic codes reported by the verifier.
const (
	DiagUnboundLabel = "unbound-label" // label never bound or bound out of range
	DiagEmptyOp      = "empty-op"      // operation has no blocks
	DiagOpenAtomic   = "open-atomic"   // AtomicBegin without AtomicEnd at Build
	DiagBranchRange  = "branch-range"  // declared successor outside [0, len(blocks))
	DiagNoExit       = "no-exit"       // block declares neither successors nor a return
	DiagUnreachable  = "unreachable"   // block unreachable from the entry block
	DiagR0Unwritten  = "r0-unwritten"  // a path from entry reaches return without writing R0
	DiagAtomicEntry  = "atomic-entry"  // branch into the middle of an atomic region

	// DiagPartialAnnotation reports an operation where only some blocks
	// carry control-flow annotations. The CFG checks cannot run against
	// half a graph, and silently downgrading to label-only checking (the
	// old behavior) hid exactly the annotation rot the verifier exists to
	// catch — so a partially annotated operation is now itself a finding.
	DiagPartialAnnotation = "partial-annotation"
	// DiagEffectPartial is the effect-layer analogue: some blocks declare
	// Reads/Writes/LoadsPtr/Kills and others do not, so the dataflow pass
	// would have to guess the missing blocks' behavior.
	DiagEffectPartial = "effect-partial"
	// DiagEffectRange reports an effect naming a location that does not
	// exist: a register beyond the register file or a frame slot beyond
	// the operation's declared frame.
	DiagEffectRange = "effect-range"
	// DiagEffectMismatch reports declared effects that contradict each
	// other or the control-flow notes: SetsResult without R0 in the write
	// sets, or a killed location with no declared written value
	// (Kills ⊄ Writes ∪ LoadsPtr).
	DiagEffectMismatch = "effect-mismatch"
)

// Diagnostic is one verifier finding.
type Diagnostic struct {
	Op    string // operation name
	Block int    // block index the finding anchors to, -1 for op-level findings
	Code  string // one of the Diag* codes
	Msg   string
}

func (d Diagnostic) String() string {
	if d.Block < 0 {
		return fmt.Sprintf("%s: [%s] %s", d.Op, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s: block %d: [%s] %s", d.Op, d.Block, d.Code, d.Msg)
}

// BlockInfo is one block's declared control flow and effects, with label
// targets resolved to block indices. Annotated is false for blocks added
// without Notes; an operation with any unannotated block is only checked
// at the label level.
type BlockInfo struct {
	Succs      []int
	Returns    bool
	SetsResult bool
	Atomic     bool
	Annotated  bool

	// Effects reports whether the block declared its data effects (via
	// Reads/Writes/LoadsPtr/Kills/NoEffects). The sets below are only
	// meaningful when it is true.
	Effects  bool
	Reads    []Loc
	Writes   []Loc
	LoadsPtr []Loc
	Kills    []Loc
}

// CFG returns the operation's declared control-flow graph, one entry per
// block. The slice is shared; treat it as read-only.
func (o *Op) CFG() []BlockInfo { return o.cfg }

// verifyAll runs the static checks against the builder's current state
// and returns the findings without panicking. frameWords < 0 means the
// frame size is unknown, so frame-slot effects are only range-checked.
func (b *Builder) verifyAll(name string, frameWords int) []Diagnostic {
	var ds []Diagnostic
	if len(b.blocks) == 0 {
		ds = append(ds, Diagnostic{Op: name, Block: -1, Code: DiagEmptyOp, Msg: "operation has no blocks"})
	}
	if b.atomic {
		ds = append(ds, Diagnostic{Op: name, Block: -1, Code: DiagOpenAtomic, Msg: "unclosed transactional region (AtomicBegin without AtomicEnd)"})
	}
	for i, l := range b.labels {
		if *l < 0 || *l >= len(b.blocks) {
			ds = append(ds, Diagnostic{
				Op: name, Block: -1, Code: DiagUnboundLabel,
				Msg: fmt.Sprintf("label %d unbound or out of range (-> %d, %d blocks)", i, *l, len(b.blocks)),
			})
		}
	}
	if len(ds) > 0 {
		// Unresolvable labels make the CFG meaningless; stop here.
		return ds
	}
	cfg := b.resolveCFG()
	ds = append(ds, verifyCFG(name, cfg, b.attrs)...)
	return append(ds, verifyEffects(name, cfg, frameWords)...)
}

// VerifyOp re-runs the CFG checks against a built operation — the stsim
// -lint entry point. Build already enforced these, so a clean result is
// the expected outcome; the value is the report (block counts, coverage)
// and catching hand-assembled Ops that bypassed the builder.
func VerifyOp(o *Op) []Diagnostic {
	if len(o.Blocks) == 0 {
		return []Diagnostic{{Op: o.Name, Block: -1, Code: DiagEmptyOp, Msg: "operation has no blocks"}}
	}
	ds := verifyCFG(o.Name, o.cfg, o.attrs)
	return append(ds, verifyEffects(o.Name, o.cfg, o.FrameWords)...)
}

// Annotated reports whether every block of the operation carries control-
// flow annotations (i.e. the full CFG checks applied at Build).
func (o *Op) Annotated() bool {
	if len(o.cfg) == 0 {
		return false
	}
	for _, bi := range o.cfg {
		if !bi.Annotated {
			return false
		}
	}
	return true
}

// EffectsAnnotated reports whether every block of the operation declares
// its data effects — the precondition for the dataflow pass to trust the
// operation.
func (o *Op) EffectsAnnotated() bool {
	if len(o.cfg) == 0 {
		return false
	}
	for _, bi := range o.cfg {
		if !bi.Effects {
			return false
		}
	}
	return true
}

// resolveCFG materializes the per-block metadata with labels resolved.
func (b *Builder) resolveCFG() []BlockInfo {
	cfg := make([]BlockInfo, len(b.blocks))
	for i := range b.blocks {
		m := b.meta[i]
		bi := BlockInfo{
			Returns:    m.returns,
			SetsResult: m.setsR0,
			Atomic:     b.attrs[i]&AttrAtomic != 0,
			Annotated:  m.annotated,
			Effects:    m.effects,
			Reads:      m.reads,
			Writes:     m.writes,
			LoadsPtr:   m.loadsPtr,
			Kills:      m.kills,
		}
		for _, l := range m.gotos {
			bi.Succs = append(bi.Succs, *l)
		}
		cfg[i] = bi
	}
	return cfg
}

// verifyCFG runs the graph-level checks. attrs may be shorter than cfg
// (all-zero attributes are elided); missing entries mean no flags.
func verifyCFG(name string, cfg []BlockInfo, attrs []uint8) []Diagnostic {
	var ds []Diagnostic
	n := len(cfg)
	if n == 0 {
		return ds
	}
	if missing := unannotated(cfg); len(missing) > 0 {
		if len(missing) == n {
			// Fully unannotated: legacy mode, label checks only. Ad-hoc
			// test operations keep working without declarations.
			return ds
		}
		// Partially annotated operations used to silently fall back to
		// legacy mode, skipping reachability and exit checks on the very
		// operations whose authors thought they were covered.
		return append(ds, Diagnostic{
			Op: name, Block: -1, Code: DiagPartialAnnotation,
			Msg: fmt.Sprintf("blocks %s lack control-flow annotations while others declare them; CFG checks skipped — annotate every block (or none)", intList(missing)),
		})
	}

	atomic := func(i int) bool { return i < len(attrs) && attrs[i]&AttrAtomic != 0 }
	// regionHead(i): block i starts an atomic region (is atomic, and its
	// textual predecessor is not).
	regionHead := func(i int) bool { return atomic(i) && (i == 0 || !atomic(i-1)) }
	// sameRegion(u, v): u and v lie in one contiguous atomic run.
	sameRegion := func(u, v int) bool {
		if !atomic(u) || !atomic(v) {
			return false
		}
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		for i := lo; i <= hi; i++ {
			if !atomic(i) {
				return false
			}
		}
		return true
	}

	for i, bi := range cfg {
		if len(bi.Succs) == 0 && !bi.Returns {
			ds = append(ds, Diagnostic{
				Op: name, Block: i, Code: DiagNoExit,
				Msg: "block declares no successors and no return",
			})
		}
		for _, s := range bi.Succs {
			if s < 0 || s >= n {
				ds = append(ds, Diagnostic{
					Op: name, Block: i, Code: DiagBranchRange,
					Msg: fmt.Sprintf("branches to block %d, out of range [0, %d)", s, n),
				})
				continue
			}
			if atomic(s) && !regionHead(s) && !sameRegion(i, s) {
				ds = append(ds, Diagnostic{
					Op: name, Block: i, Code: DiagAtomicEntry,
					Msg: fmt.Sprintf("branches into the middle of the atomic region at block %d", s),
				})
			}
		}
	}

	// Reachability from the entry block, tracking the R0 dataflow at the
	// same time: state "dirty" means some path reaches the block with R0
	// still unwritten. parent reconstructs an example path for reports.
	const (
		unseen = iota
		clean  // reached, R0 written on every path in
		dirty  // reached with R0 possibly unwritten
	)
	state := make([]uint8, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var queue []int
	push := func(b int, st uint8, from int) {
		if b < 0 || b >= n || state[b] >= st {
			return
		}
		if state[b] == unseen {
			parent[b] = from
		}
		state[b] = st
		queue = append(queue, b)
	}
	push(0, dirty, -1)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		out := state[b]
		if cfg[b].SetsResult {
			out = clean
		}
		for _, s := range cfg[b].Succs {
			push(s, out, b)
		}
	}

	for i, bi := range cfg {
		if state[i] == unseen {
			ds = append(ds, Diagnostic{
				Op: name, Block: i, Code: DiagUnreachable,
				Msg: "block is unreachable from the entry block",
			})
			continue
		}
		if bi.Returns && !bi.SetsResult && state[i] == dirty {
			ds = append(ds, Diagnostic{
				Op: name, Block: i, Code: DiagR0Unwritten,
				Msg: fmt.Sprintf("can return with R0 never written (path %s)", pathTo(parent, i)),
			})
		}
	}
	return ds
}

// verifyEffects runs the effect-layer checks: per-block internal
// consistency of the declared Reads/Writes/LoadsPtr/Kills sets, their
// agreement with the control-flow notes, and all-or-nothing effect
// coverage. The checks are local (no graph walk), so they run even for
// operations whose CFG annotations are partial. frameWords < 0 skips the
// frame-slot upper bound (standalone Builder.Verify).
func verifyEffects(name string, cfg []BlockInfo, frameWords int) []Diagnostic {
	var ds []Diagnostic
	var withEffects int
	for _, bi := range cfg {
		if bi.Effects {
			withEffects++
		}
	}
	if withEffects > 0 && withEffects < len(cfg) {
		var missing []int
		for i, bi := range cfg {
			if !bi.Effects {
				missing = append(missing, i)
			}
		}
		ds = append(ds, Diagnostic{
			Op: name, Block: -1, Code: DiagEffectPartial,
			Msg: fmt.Sprintf("blocks %s declare no effects while others do; the dataflow pass needs every block covered (use NoEffects for blocks that touch nothing)", intList(missing)),
		})
	}

	for i, bi := range cfg {
		if !bi.Effects {
			continue
		}
		for _, set := range []struct {
			kind string
			locs []Loc
		}{{"Reads", bi.Reads}, {"Writes", bi.Writes}, {"LoadsPtr", bi.LoadsPtr}, {"Kills", bi.Kills}} {
			for _, l := range set.locs {
				if !l.valid(frameWords) {
					ds = append(ds, Diagnostic{
						Op: name, Block: i, Code: DiagEffectRange,
						Msg: fmt.Sprintf("%s names %s, outside the register file / %d-word frame", set.kind, l, frameWords),
					})
				}
			}
		}
		for _, l := range bi.Kills {
			if !locIn(bi.Writes, l) && !locIn(bi.LoadsPtr, l) {
				ds = append(ds, Diagnostic{
					Op: name, Block: i, Code: DiagEffectMismatch,
					Msg: fmt.Sprintf("Kills %s but neither Writes nor LoadsPtr declares the written value", l),
				})
			}
		}
		if bi.SetsResult {
			r0 := R(RegResult)
			if !locIn(bi.Writes, r0) && !locIn(bi.LoadsPtr, r0) {
				ds = append(ds, Diagnostic{
					Op: name, Block: i, Code: DiagEffectMismatch,
					Msg: "declared SetsResult but effects never write R0 (add Writes(R(0)) or LoadsPtr(R(0)))",
				})
			}
		}
	}
	return ds
}

// unannotated lists the blocks lacking control-flow annotations.
func unannotated(cfg []BlockInfo) []int {
	var missing []int
	for i, bi := range cfg {
		if !bi.Annotated {
			missing = append(missing, i)
		}
	}
	return missing
}

// intList renders a block-index list for diagnostics.
func intList(idx []int) string {
	var sb strings.Builder
	for i, b := range idx {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%d", b)
	}
	return sb.String()
}

// pathTo renders the entry→i example path recorded by the verifier walk.
func pathTo(parent []int, i int) string {
	var idx []int
	for b := i; b >= 0; b = parent[b] {
		idx = append(idx, b)
		if len(idx) > len(parent) {
			break // defensive: parent cycles cannot happen, but never loop
		}
	}
	var sb strings.Builder
	for j := len(idx) - 1; j >= 0; j-- {
		if sb.Len() > 0 {
			sb.WriteString("->")
		}
		fmt.Fprintf(&sb, "%d", idx[j])
	}
	return sb.String()
}
