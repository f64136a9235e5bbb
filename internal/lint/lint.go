// Package lint is a static analyzer for the repository's determinism and
// concurrency invariants, organized as two rule families plus an
// interprocedural dataflow engine.
//
// The determinism family guards the measurement path syntactically:
// replayable RNG, no wall-clock reads outside the timing packages, no
// map-iteration-order dependence in anything that feeds a report or a
// checksum, no goroutines inside benchmark kernels, pure-compute imports
// in benchmark packages, no silently discarded checksum folds, and
// uninstrumented benchmark Prepare methods (the prepared-workload
// contract of core.Benchmark.Prepare).
//
// The concurrency family guards the invariants the multi-node service
// depends on: mutex-guarded struct fields accessed without their guard
// (declared with a //lint:guardedby <mutex> field comment), goroutines
// launched without propagating an in-scope context.Context, channel sends
// outside a select that can block shutdown, and spawned workers with no
// Wait/join evidence.
//
// On top of the per-package rules, the interprocedural engine (Program,
// NondeterministicTaint) builds a whole-surface call graph over the
// type-checked packages and taint-propagates nondeterminism sources (wall
// clock, global rand, map-order folds, env/hostname reads, unsynchronized
// guarded-field access) to report sinks — functions producing
// report.Measurement/Results/Suite values or checksums — reporting the
// full source-to-sink call chain.
//
// The analyzer is stdlib-only (go/parser, go/ast, go/types, go/token).
// Each invariant is a Rule (per package) or ProgramRule (whole program);
// rules receive fully type-checked input and report Diagnostics. A
// finding can be suppressed — explicitly and auditably — with a comment
// on the flagged line or the line above it:
//
//	//lint:allow <rule-id> <reason>
//
// The reason is mandatory; an allow comment without one is ignored. An
// allow that suppresses nothing is itself reported as stale-suppression.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	RuleID  string         `json:"rule"`
	Message string         `json:"message"`
}

// String renders the canonical "file:line: rule-id: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.RuleID, d.Message)
}

// Pass is one type-checked package presented to rules.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// diag builds a Diagnostic at n's position.
func (p *Pass) diag(ruleID string, n ast.Node, format string, args ...any) Diagnostic {
	pos := p.Fset.Position(n.Pos())
	return Diagnostic{
		Pos:     pos,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		RuleID:  ruleID,
		Message: fmt.Sprintf(format, args...),
	}
}

// Rule checks one invariant over a package.
type Rule interface {
	// ID is the stable identifier used in diagnostics and allow comments.
	ID() string
	// Doc is a one-line description for -rules listings and documentation.
	Doc() string
	// Check inspects the package and returns every violation found.
	Check(p *Pass) []Diagnostic
}

// DefaultRules returns the full per-package rule set in a stable order:
// the determinism family first, then the concurrency-invariant family.
func DefaultRules() []Rule {
	return []Rule{
		NoGlobalRand{},
		NoWallClock{},
		NoMapOrderDependence{},
		NoGoroutinesInKernels{},
		ForbiddenImports{},
		ChecksumDiscipline{},
		NoProfilerInPrepare{},
		GuardedBy{},
		GoroutineContext{},
		BlockingSend{},
		WorkerJoin{},
	}
}

// Lint runs per-package rules over one pass, drops suppressed findings,
// flags stale suppressions, and returns the rest sorted by position. It is
// the single-package form of Program.Lint.
func Lint(p *Pass, rules []Rule) []Diagnostic {
	return NewProgram(p).Lint(rules, nil)
}

// sortDiagnostics orders diagnostics by file, line, column, rule id.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].RuleID < out[j].RuleID
	})
}

// StaleSuppressionID is the rule id under which unused or unknown
// //lint:allow comments are reported. It is emitted by the engine itself
// (not a Rule) and cannot be suppressed with another allow comment.
const StaleSuppressionID = "stale-suppression"

// allowKey identifies one allow grant: a rule on a line of a file.
type allowKey struct {
	file   string
	line   int
	ruleID string
}

// allowGrant is one parsed //lint:allow comment. used is set when the
// grant suppresses at least one diagnostic; surface marks grants from the
// linted packages (as opposed to call-graph context), which are the only
// ones eligible for stale reporting.
type allowGrant struct {
	pos     token.Position
	ruleID  string
	reason  string
	used    bool
	surface bool
}

// allowIndex holds every grant plus a by-(file,line,rule) lookup. One
// grant registers under two keys: the comment's own line (trailing form)
// and the line below it (standalone form).
type allowIndex struct {
	grants []*allowGrant
	byKey  map[allowKey]*allowGrant
}

// collectAllows parses every "//lint:allow <rule-id> <reason>" comment in
// the given passes. Comments without a reason are ignored so that every
// suppression carries its justification.
func collectAllows(surface, context []*Pass) *allowIndex {
	ai := &allowIndex{byKey: map[allowKey]*allowGrant{}}
	ai.add(surface, true)
	ai.add(context, false)
	return ai
}

func (ai *allowIndex) add(passes []*Pass, surface bool) {
	for _, p := range passes {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) < 2 {
						// Rule id but no reason (or nothing at all): not a
						// valid suppression.
						continue
					}
					pos := p.Fset.Position(c.Pos())
					g := &allowGrant{
						pos:     pos,
						ruleID:  fields[0],
						reason:  strings.Join(fields[1:], " "),
						surface: surface,
					}
					ai.grants = append(ai.grants, g)
					ai.byKey[allowKey{pos.Filename, pos.Line, g.ruleID}] = g
					ai.byKey[allowKey{pos.Filename, pos.Line + 1, g.ruleID}] = g
				}
			}
		}
	}
}

func (ai *allowIndex) suppresses(d Diagnostic) bool {
	if d.RuleID == StaleSuppressionID {
		return false
	}
	g := ai.byKey[allowKey{d.File, d.Line, d.RuleID}]
	if g == nil {
		return false
	}
	g.used = true
	return true
}

// stale reports every surface grant that suppressed nothing. A grant whose
// rule id is unknown to the registry is always stale; a known rule id is
// only judged when that rule actually ran (fixture tests run one rule at a
// time and must not see stale findings for the others).
func (ai *allowIndex) stale(ran, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, g := range ai.grants {
		if g.used || !g.surface {
			continue
		}
		var msg string
		switch {
		case !known[g.ruleID]:
			msg = fmt.Sprintf("//lint:allow names unknown rule %q; remove or fix the suppression", g.ruleID)
		case ran[g.ruleID]:
			msg = fmt.Sprintf("//lint:allow %s (%s) matches no finding; remove the stale suppression", g.ruleID, g.reason)
		default:
			continue
		}
		out = append(out, Diagnostic{
			Pos:     g.pos,
			File:    g.pos.Filename,
			Line:    g.pos.Line,
			Col:     g.pos.Column,
			RuleID:  StaleSuppressionID,
			Message: msg,
		})
	}
	return out
}

// --- shared helpers used by several rules ---

// isBenchmarkPkg reports whether pkgpath is a benchmark-kernel package
// (anything under internal/benchmarks).
func isBenchmarkPkg(pkgpath string) bool {
	return strings.Contains(pkgpath, "/internal/benchmarks")
}

// isTimingPkg reports whether pkgpath is allowed to read the wall clock:
// the harness (wall-time averaging) and the modeled profiler.
func isTimingPkg(pkgpath string) bool {
	return strings.HasSuffix(pkgpath, "/internal/harness") ||
		strings.HasSuffix(pkgpath, "/internal/perf")
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" if it is not a package qualifier.
func pkgNameOf(p *Pass, id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// pkgCall matches a call of the form pkg.Fn(...) where pkg's import path
// is pkgpath, returning the function name.
func pkgCall(p *Pass, call *ast.CallExpr, pkgpath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkgNameOf(p, id) != pkgpath {
		return "", false
	}
	return sel.Sel.Name, true
}
