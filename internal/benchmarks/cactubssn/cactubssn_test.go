package cactubssn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: 4, Steps: 5, Courant: 0.1, Sigma: 1},
		{N: 16, Steps: 0, Courant: 0.1, Sigma: 1},
		{N: 16, Steps: 5, Courant: 0, Sigma: 1},
		{N: 16, Steps: 5, Courant: 1.5, Sigma: 1},
		{N: 16, Steps: 5, Courant: 0.1, Sigma: 0},
		{N: 16, Steps: 5, Courant: 0.1, Sigma: 1, Dissipation: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %+v: err = %v, want ErrBadParams", p, err)
		}
	}
}

func TestEvolutionStableAndDynamic(t *testing.T) {
	prm := Params{N: 12, Steps: 10, Courant: 0.1, Dissipation: 0.01, Amplitude: 0.05, Sigma: 2, Lapse: 2}
	s, err := NewSolver(prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	norms, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The pulse must actually evolve: K starts at zero and must grow.
	if norms.K <= 0 {
		t.Errorf("K norm = %v, expected the curvature to evolve", norms.K)
	}
	if math.IsNaN(norms.Phi) || norms.Phi > 10 {
		t.Errorf("phi norm = %v, evolution unstable", norms.Phi)
	}
}

func TestGaugeCoupling(t *testing.T) {
	// With a stronger lapse coupling the gauge field departs farther from
	// its initial value of 1.
	run := func(lapse float64) float64 {
		prm := Params{N: 12, Steps: 12, Courant: 0.1, Dissipation: 0.01, Amplitude: 0.08, Sigma: 2, Lapse: lapse}
		s, err := NewSolver(prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		norms, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(norms.Alpha - 1)
	}
	if weak, strong := run(0.5), run(4); strong <= weak {
		t.Errorf("stronger gauge coupling should move alpha more: %v vs %v", strong, weak)
	}
}

func TestDissipationDamps(t *testing.T) {
	run := func(diss float64) float64 {
		prm := Params{N: 12, Steps: 16, Courant: 0.1, Dissipation: diss, Amplitude: 0.08, Sigma: 1.5, Lapse: 2}
		s, err := NewSolver(prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		norms, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return norms.Phi
	}
	if low, high := run(0.0), run(0.08); high >= low {
		t.Errorf("dissipation should damp phi: %v (damped) vs %v (undamped)", high, low)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Norms {
		prm := Params{N: 10, Steps: 8, Courant: 0.1, Dissipation: 0.01, Amplitude: 0.05, Sigma: 2, Lapse: 2}
		s, err := NewSolver(prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
		}
	}
	if alberta != 7 {
		t.Errorf("alberta workloads = %d, want 7 (paper ships seven)", alberta)
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
	if rep.Coverage["bssn_rhs"] == 0 {
		t.Errorf("stencil kernel missing from coverage: %v", rep.Coverage)
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsRun(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
