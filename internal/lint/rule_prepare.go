package lint

import (
	"go/ast"
	"go/types"
)

// perfPkgPath is the modeled profiler's import path.
const perfPkgPath = "repro/internal/perf"

// NoProfilerInPrepare enforces core.Benchmark's Prepare contract inside
// benchmark packages: Prepare is the uninstrumented phase, so a Prepare
// method must not take a *perf.Profiler, touch a profiler-typed value, or
// reach into the perf package at all. Passing a literal nil profiler to
// shared constructors (e.g. NewSim(g, params, nil)) is the sanctioned way
// to reuse instrumented code paths during preparation and is not flagged.
type NoProfilerInPrepare struct{}

func (NoProfilerInPrepare) ID() string { return "no-profiler-in-prepare" }

func (NoProfilerInPrepare) Doc() string {
	return "benchmark Prepare methods must stay uninstrumented: no *perf.Profiler parameters, values, or perf package references"
}

// isProfilerType reports whether t is perf.Profiler or *perf.Profiler.
func isProfilerType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Profiler" && obj.Pkg() != nil && obj.Pkg().Path() == perfPkgPath
}

func (r NoProfilerInPrepare) Check(p *Pass) []Diagnostic {
	if !isBenchmarkPkg(p.PkgPath) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Prepare" {
				continue
			}
			for _, field := range fd.Type.Params.List {
				if tv, ok := p.Info.Types[field.Type]; ok && isProfilerType(tv.Type) {
					out = append(out, p.diag(r.ID(), field.Type,
						"Prepare takes a *perf.Profiler; preparation must stay uninstrumented (profile in Execute)"))
				}
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.Ident:
					if e.Name == "nil" {
						return true
					}
					if pkgNameOf(p, e) == perfPkgPath {
						out = append(out, p.diag(r.ID(), e,
							"perf package referenced inside Prepare; preparation must stay uninstrumented (profile in Execute)"))
						return true
					}
					if tv, ok := p.Info.Types[ast.Expr(e)]; ok && isProfilerType(tv.Type) {
						out = append(out, p.diag(r.ID(), e,
							"*perf.Profiler value %q used inside Prepare; preparation must stay uninstrumented (profile in Execute)", e.Name))
					}
				case *ast.SelectorExpr:
					// A profiler-typed selector (e.g. a struct field holding
					// the profiler) is one finding; don't descend and
					// re-report its components.
					if tv, ok := p.Info.Types[ast.Expr(e)]; ok && isProfilerType(tv.Type) {
						out = append(out, p.diag(r.ID(), e,
							"*perf.Profiler value used inside Prepare; preparation must stay uninstrumented (profile in Execute)"))
						return false
					}
				}
				return true
			})
		}
	}
	return out
}
