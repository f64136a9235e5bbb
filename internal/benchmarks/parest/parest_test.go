package parest

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: 2, Blocks: 1, OuterIters: 1, CGTol: 1e-6},
		{N: 8, Blocks: 0, OuterIters: 1, CGTol: 1e-6},
		{N: 8, Blocks: 9, OuterIters: 1, CGTol: 1e-6},
		{N: 8, Blocks: 2, OuterIters: 0, CGTol: 1e-6},
		{N: 8, Blocks: 2, OuterIters: 1, CGTol: 0},
		{N: 8, Blocks: 2, OuterIters: 1, CGTol: 1e-6, Lambda: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestForwardSolveResidual(t *testing.T) {
	prm := Params{N: 10, Blocks: 2, Noise: 0, Lambda: 0.01, OuterIters: 1, CGTol: 1e-10, Seed: 1}
	pb, err := NewProblem(prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := []float64{1, 1, 1, 1}
	u, err := pb.Solve(coeffs)
	if err != nil {
		t.Fatal(err)
	}
	// A u must equal f to the CG tolerance.
	out := make([]float64, len(u))
	pb.applyA(coeffs, u, out)
	var resid, fnorm float64
	for i := range out {
		d := out[i] - pb.f[i]
		resid += d * d
		fnorm += pb.f[i] * pb.f[i]
	}
	if math.Sqrt(resid/fnorm) > 1e-8 {
		t.Errorf("relative residual = %v", math.Sqrt(resid/fnorm))
	}
}

func TestSolveRejectsNonPositiveCoefficients(t *testing.T) {
	prm := Params{N: 8, Blocks: 2, Noise: 0, Lambda: 0.01, OuterIters: 1, CGTol: 1e-8, Seed: 1}
	pb, err := NewProblem(prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Solve([]float64{1, -1, 1, 1}); err == nil {
		t.Error("negative coefficient should fail")
	}
}

func TestHigherDiffusionLowersSolution(t *testing.T) {
	prm := Params{N: 12, Blocks: 1, Noise: 0, Lambda: 0.01, OuterIters: 1, CGTol: 1e-10, Seed: 2}
	pb, err := NewProblem(prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(c float64) float64 {
		u, err := pb.Solve([]float64{c})
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range u {
			s += v * v
		}
		return math.Sqrt(s)
	}
	if lo, hi := norm(0.5), norm(2.0); hi >= lo {
		t.Errorf("stiffer medium should damp the solution: a=0.5 → %v, a=2 → %v", lo, hi)
	}
}

func TestEstimateReducesObjectiveAndApproachesTruth(t *testing.T) {
	prm := Params{N: 12, Blocks: 2, Noise: 0.005, Lambda: 0.001, OuterIters: 8, CGTol: 1e-9, Seed: 3}
	pb, err := NewProblem(prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := pb.misfit([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pb.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective >= initial {
		t.Errorf("estimation did not improve: %v → %v", initial, res.Objective)
	}
	// The flat guess is on average distance ~0.6 from U(0.5, 2); the
	// estimate should be meaningfully closer.
	var flatErr float64
	for _, c := range pb.true {
		flatErr += (1 - c) * (1 - c)
	}
	flatErr = math.Sqrt(flatErr / float64(len(pb.true)))
	if res.TrueError >= flatErr {
		t.Errorf("estimate error %v not better than flat guess %v", res.TrueError, flatErr)
	}
	if res.CGIterations == 0 {
		t.Error("no CG iterations recorded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		prm := Params{N: 10, Blocks: 2, Noise: 0.01, Lambda: 0.01, OuterIters: 3, CGTol: 1e-8, Seed: 5}
		pb, err := NewProblem(prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pb.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return res.Objective
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	measurement := 0
	for _, w := range ws {
		if w.WorkloadKind() != core.KindTest {
			measurement++
		}
	}
	// Table II lists 8 parest workloads.
	if measurement != 7 {
		t.Errorf("measurement workloads = %d, want 7 (train+ref+5 alberta)", measurement)
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
	for _, m := range []string{"apply_operator", "cg_solve", "gradient"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
	// parest is the most back-end/retiring benchmark pair in Table II
	// (b=26.0, r=53.7): the kernel should retire heavily.
	if rep.TopDown.Retiring < 0.2 {
		t.Errorf("retiring = %v, expected compute-heavy kernel", rep.TopDown.Retiring)
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsRun(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 23, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
