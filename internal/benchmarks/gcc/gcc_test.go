package gcc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/benchmarks/gcc/cc"
	"repro/internal/core"
	"repro/internal/onefile"
	"repro/internal/perf"
)

func TestGeneratedProgramsCompileAndRun(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := GenParams{
			Functions: 2 + int(seed%6),
			LoopDepth: 1 + int(seed%3),
			ExprDepth: 1 + int(seed%4),
			Arrays:    int(seed % 3),
			Seed:      seed,
		}
		src := GenerateProgram(p)
		unit, err := cc.CompileSource(src, cc.O2, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		if _, err := cc.Run(unit, cc.VMOptions{StepLimit: 20_000_000}); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
	}
}

func TestGeneratedProgramDeterministic(t *testing.T) {
	p := GenParams{Functions: 5, LoopDepth: 2, ExprDepth: 3, Arrays: 2, Seed: 9}
	if GenerateProgram(p) != GenerateProgram(p) {
		t.Error("generator not deterministic")
	}
}

func TestGeneratedProgramSemanticsStableAcrossLevels(t *testing.T) {
	src := GenerateProgram(GenParams{Functions: 8, LoopDepth: 2, ExprDepth: 3, Arrays: 2, Seed: 31})
	var want cc.RunResult
	for i, level := range []cc.OptLevel{cc.O0, cc.O1, cc.O2, cc.O3} {
		unit, err := cc.CompileSource(src, level, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cc.Run(unit, cc.VMOptions{StepLimit: 40_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			continue
		}
		if res.Return != want.Return || res.Output != want.Output {
			t.Errorf("%v: output differs from -O0", level)
		}
	}
}

func TestGenerateMultiFileCombinesAndRuns(t *testing.T) {
	files := GenerateMultiFile(3, 7)
	combined, err := onefile.Combine(files)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := cc.CompileSource(combined, cc.O2, nil, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := cc.Run(unit, cc.VMOptions{StepLimit: 40_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Printed != 1 {
		t.Errorf("printed = %d, want 1", res.Printed)
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	onefileCount := 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
			gw := w.(Workload)
			if len(gw.Source) == 0 {
				t.Errorf("%s: empty source", gw.Name)
			}
			if gw.Name[:15] == "alberta.onefile" {
				onefileCount++
			}
		}
	}
	if alberta < 6 {
		t.Errorf("alberta workloads = %d, want ≥ 6", alberta)
	}
	if onefileCount != 3 {
		t.Errorf("onefile workloads = %d, want 3 (mcf, lbm, johnripper stand-ins)", onefileCount)
	}
}

func TestBenchmarkRunProfiled(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	r, err := core.Run(b, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum == 0 {
		t.Error("zero checksum")
	}
	rep := p.Report()
	for _, m := range []string{"parse", "codegen", "preprocess"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
	// gcc is a flat-profile benchmark: several methods should matter.
	big := 0
	for _, c := range rep.Coverage {
		if c > 0.05 {
			big++
		}
	}
	if big < 2 {
		t.Errorf("expected a flat profile, got coverage %v", rep.Coverage)
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("workload %s: %v", w.WorkloadName(), err)
		}
	}
}

func TestSameSourceDifferentLevelsDifferentChecksums(t *testing.T) {
	b := New()
	w0, err := core.FindWorkload(b, "alberta.flat-O0")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := core.FindWorkload(b, "alberta.flat-O1")
	if err != nil {
		t.Fatal(err)
	}
	r0, err := core.Run(b, w0, perf.New())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.Run(b, w1, perf.New())
	if err != nil {
		t.Fatal(err)
	}
	if r0.Checksum == r1.Checksum {
		t.Error("different optimization levels should produce different code checksums")
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsCompile(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 55, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		gw := w.(Workload)
		if _, err := cc.CompileSource(gw.Source, gw.Level, nil, nil); err != nil {
			t.Errorf("%s does not compile: %v", gw.Name, err)
		}
	}
}

func TestReplaceWord(t *testing.T) {
	if got := replaceWord("f0 + f01 + xf0 + f0", "f0", "Z"); got != "Z + f01 + xf0 + Z" {
		t.Errorf("replaceWord = %q", got)
	}
}

// TestGeneratedWorkloadsValidateAtHeavyShapes pins the MaxIters clamp:
// sweep-generated workloads at the heavy end of the shape cycle (40
// functions × depth-3 loops, indices ≡ 29 mod 30) must validate within
// the VM step limit for any seed. Index 29 at seed 1 is the draw that
// originally exceeded it.
func TestGeneratedWorkloadsValidateAtHeavyShapes(t *testing.T) {
	b := New()
	for _, seed := range []int64{1, 7} {
		ws, err := core.GenerateWorkloads(b, seed, 90)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{29, 59, 89} {
			if _, err := core.Run(b, ws[i], perf.New()); err != nil {
				t.Errorf("seed %d index %d: %v", seed, i, err)
			}
		}
	}
}

// TestMaxItersZeroLeavesProgramsUnchanged proves the clamp is inert when
// unset: inventory workloads (MaxIters zero) keep their exact pre-clamp
// program text, so pinned baselines cannot drift.
func TestMaxItersZeroLeavesProgramsUnchanged(t *testing.T) {
	p := GenParams{Functions: 40, LoopDepth: 3, ExprDepth: 4, Arrays: 4, Seed: 3}
	plain := GenerateProgram(p)
	p.MaxIters = 1000 // larger than any drawn ITERS: must not bind
	if GenerateProgram(p) != plain {
		t.Error("non-binding MaxIters changed the program")
	}
	p.MaxIters = 2
	clamped := GenerateProgram(p)
	if clamped == plain {
		t.Error("binding MaxIters left the program unchanged")
	}
	if !strings.Contains(clamped, "#define ITERS 2\n") {
		t.Error("clamped program does not define ITERS 2")
	}
}
