package gcc

import (
	"fmt"
	"strings"

	"repro/internal/benchmarks/gcc/cc"
	"repro/internal/core"
	"repro/internal/onefile"
	"repro/internal/perf"
)

// Workload is one 502.gcc_r input: a single preprocessed-ready compilation
// unit and the optimization level to compile it at (SPEC's gcc workloads
// likewise pair a source file with an option set).
type Workload struct {
	core.Meta
	Source string
	Level  cc.OptLevel
}

// GenerateMultiFile produces a multi-file mini-C program of the shape the
// OneFile tool was built for: several modules with colliding static helper
// names plus a main file. Deterministic in seed.
func GenerateMultiFile(modules int, seed int64) []onefile.SourceFile {
	if modules < 1 {
		modules = 1
	}
	var files []onefile.SourceFile
	var mainBody string
	for m := 0; m < modules; m++ {
		p := GenParams{Functions: 2, LoopDepth: 2, ExprDepth: 2, Arrays: 1, FixedArity: 1, Seed: seed + int64(m)*97}
		// Reuse the single-file generator, then strip its main and wrap
		// exported entry points.
		body := GenerateProgram(p)
		// Remove the generated main (everything from "int main" on).
		if i := strings.Index(body, "int main()"); i >= 0 {
			body = body[:i]
		}
		// The module exposes one entry point calling its local helpers;
		// every module also defines a static helper named "helper",
		// exercising the mangling path.
		entry := fmt.Sprintf("mod%d_run", m)
		body += fmt.Sprintf(`
static int helper(int x) { return x * %d + %d; }
int %s(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s += helper(i) + f0(i); }
  return s;
}
`, m+2, m, entry)
		files = append(files, onefile.SourceFile{
			Name:    fmt.Sprintf("mod%d.c", m),
			Content: renameModuleLocals(body, m),
		})
		mainBody += fmt.Sprintf("  total += %s(12);\n", entry)
	}
	files = append(files, onefile.SourceFile{
		Name: "main.c",
		Content: "int main() {\n  int total = 0;\n" + mainBody +
			"  print(total);\n  return total % 251;\n}\n",
	})
	return files
}

// renameModuleLocals prefixes the generator's default names so non-static
// definitions do not collide across modules (statics are OneFile's job).
func renameModuleLocals(src string, m int) string {
	// The generator emits g<i>, arr<i>, f<i>, ITERS, SCALE; prefix all
	// but keep "helper" static collisions intact on purpose.
	replacements := []struct{ from, to string }{
		{"ITERS", fmt.Sprintf("M%d_ITERS", m)},
		{"SCALE", fmt.Sprintf("M%d_SCALE", m)},
	}
	out := src
	for _, r := range replacements {
		out = replaceWord(out, r.from, r.to)
	}
	for i := 0; i < 8; i++ {
		out = replaceWord(out, fmt.Sprintf("g%d", i), fmt.Sprintf("m%d_g%d", m, i))
		out = replaceWord(out, fmt.Sprintf("arr%d", i), fmt.Sprintf("m%d_arr%d", m, i))
		if i > 0 {
			out = replaceWord(out, fmt.Sprintf("f%d", i), fmt.Sprintf("m%d_f%d", m, i))
		}
	}
	// f0 last so fN (N>0) renames don't clobber it; the module entry's
	// f0 reference is renamed consistently. The static "helper" names are
	// left colliding on purpose: mangling them is OneFile's job.
	out = replaceWord(out, "f0", fmt.Sprintf("m%d_f0", m))
	return out
}

// replaceWord substitutes whole-identifier occurrences.
func replaceWord(s, from, to string) string {
	var out []byte
	i := 0
	for i < len(s) {
		if i+len(from) <= len(s) && s[i:i+len(from)] == from {
			beforeOK := i == 0 || !isWordByte(s[i-1])
			afterOK := i+len(from) == len(s) || !isWordByte(s[i+len(from)])
			if beforeOK && afterOK {
				out = append(out, to...)
				i += len(from)
				continue
			}
		}
		out = append(out, s[i])
		i++
	}
	return string(out)
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// Benchmark is the 502.gcc_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "502.gcc_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Compiler" }

// Workloads returns SPEC-style inputs plus Alberta workloads: generated
// single-compilation-unit programs of several shapes, and OneFile-combined
// multi-file programs standing in for the paper's mcf/lbm/johnripper
// conversions.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mkGen := func(name string, kind core.Kind, p GenParams, level cc.OptLevel) core.Workload {
		return Workload{Meta: core.Meta{Name: name, Kind: kind}, Source: GenerateProgram(p), Level: level}
	}
	mkOneFile := func(name string, modules int, seed int64) (core.Workload, error) {
		combined, err := onefile.Combine(GenerateMultiFile(modules, seed))
		if err != nil {
			return nil, fmt.Errorf("gcc: building %s: %w", name, err)
		}
		return Workload{Meta: core.Meta{Name: name, Kind: core.KindAlberta}, Source: combined, Level: cc.O2}, nil
	}

	ws := []core.Workload{
		mkGen("test", core.KindTest, GenParams{Functions: 3, LoopDepth: 1, ExprDepth: 2, Arrays: 1, Seed: 1}, cc.O2),
		mkGen("train", core.KindTrain, GenParams{Functions: 12, LoopDepth: 2, ExprDepth: 3, Arrays: 2, Seed: 2}, cc.O2),
		mkGen("refrate", core.KindRefrate, GenParams{Functions: 40, LoopDepth: 3, ExprDepth: 4, Arrays: 4, Seed: 3}, cc.O3),
		mkGen("alberta.exprheavy", core.KindAlberta, GenParams{Functions: 24, LoopDepth: 1, ExprDepth: 6, Arrays: 2, Seed: 11}, cc.O3),
		mkGen("alberta.loopheavy", core.KindAlberta, GenParams{Functions: 16, LoopDepth: 4, ExprDepth: 2, Arrays: 3, Seed: 12}, cc.O2),
		mkGen("alberta.flat-O0", core.KindAlberta, GenParams{Functions: 48, LoopDepth: 1, ExprDepth: 3, Arrays: 2, Seed: 13}, cc.O0),
		mkGen("alberta.flat-O1", core.KindAlberta, GenParams{Functions: 48, LoopDepth: 1, ExprDepth: 3, Arrays: 2, Seed: 13}, cc.O1),
	}
	for i, spec := range []struct {
		name    string
		modules int
		seed    int64
	}{
		{"alberta.onefile-mcf", 4, 101},
		{"alberta.onefile-lbm", 6, 102},
		{"alberta.onefile-johnripper", 9, 103},
	} {
		w, err := mkOneFile(spec.name, spec.modules, spec.seed)
		if err != nil {
			return nil, fmt.Errorf("workload %d: %w", i, err)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	p := GenParams{
		Functions: 8 + (i%5)*8,
		LoopDepth: 1 + i%3,
		ExprDepth: 2 + i%4,
		Arrays:    1 + i%3,
		Seed:      seed + int64(i),
	}
	// Clamp main's iteration count by the program shape: validation
	// work scales as ITERS × Functions × (loop bound)^LoopDepth, and
	// an unlucky draw at the heavy end (40 functions, depth-3 loops)
	// can otherwise exceed the VM's validation step limit. Inventory
	// workloads keep MaxIters zero — their programs are pinned by
	// baselines and never change.
	if cap := 512 / (p.Functions * p.LoopDepth * p.LoopDepth); cap < 32 {
		p.MaxIters = max(2, cap)
	}
	return Workload{
		Meta:   core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Source: GenerateProgram(p),
		Level:  cc.OptLevel(i % 4),
	}, nil
}

// prepared wraps the workload, whose source text is already the benchmark's
// input file: compilation itself is the measured phase. The VM scratch is
// recycled across Executes so the validation run performs no steady-state
// allocation.
type prepared struct {
	b  *Benchmark
	gw Workload
	sc *cc.Scratch
}

// Prepare implements core.Benchmark.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	gw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	return &prepared{b: b, gw: gw, sc: &cc.Scratch{}}, nil
}

// Execute implements core.PreparedWorkload: compile the unit and validate
// it on the VM.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, gw := pw.b, pw.gw
	unit, err := cc.CompileSource(gw.Source, gw.Level, nil, p)
	if err != nil {
		return core.Result{}, fmt.Errorf("gcc: %s: %w", gw.Name, err)
	}
	res, err := cc.Run(unit, cc.VMOptions{StepLimit: 20_000_000, Scratch: pw.sc})
	if err != nil {
		return core.Result{}, fmt.Errorf("gcc: %s: validation run: %w", gw.Name, err)
	}
	sum := core.NewChecksum().
		AddUint64(unit.Checksum()).
		AddUint64(uint64(res.Return)).
		AddUint64(res.Output).
		AddUint64(uint64(unit.Inlined))
	return core.Result{
		Benchmark: b.Name(),
		Workload:  gw.Name,
		Kind:      gw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
