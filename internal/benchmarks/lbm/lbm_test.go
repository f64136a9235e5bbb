package lbm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestOppositeDirections(t *testing.T) {
	for i := 0; i < q; i++ {
		o := opposite[i]
		if cx[o] != -cx[i] || cy[o] != -cy[i] || cz[o] != -cz[i] {
			t.Errorf("opposite[%d] = %d is not the reverse", i, o)
		}
		if opposite[o] != i {
			t.Errorf("opposite not involutive at %d", i)
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	s := 0.0
	for _, w := range wt {
		s += w
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("weights sum to %v", s)
	}
}

func TestMassConservationNoForcing(t *testing.T) {
	// With no body force and no obstacle interior, total mass must be
	// conserved exactly by collide+stream+bounce-back.
	g, err := GenerateGeometry(8, 8, 8, ObstacleSphere, 0.3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(g, Params{Steps: 10, Omega: 1.0, Accel: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	massOf := func() float64 {
		total := 0.0
		n := g.NX * g.NY * g.NZ
		for c := 0; c < n; c++ {
			if g.Solid[c] {
				continue
			}
			for i := 0; i < q; i++ {
				total += sim.f[c*q+i]
			}
		}
		return total
	}
	before := massOf()
	for i := 0; i < 10; i++ {
		sim.step()
	}
	after := massOf()
	if math.Abs(before-after) > 1e-9*before {
		t.Errorf("mass drifted: %v → %v", before, after)
	}
}

func TestForcingProducesFlow(t *testing.T) {
	g, err := GenerateGeometry(12, 8, 8, ObstacleNone, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(g, Params{Steps: 40, Omega: 1.2, Accel: 0.005}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.MeanUx <= 0 {
		t.Errorf("mean flow = %v, want positive along the driven axis", st.MeanUx)
	}
}

func TestObstacleSlowsFlow(t *testing.T) {
	run := func(kind ObstacleKind, size float64) float64 {
		g, err := GenerateGeometry(16, 10, 10, kind, size, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(g, Params{Steps: 30, Omega: 1.2, Accel: 0.004}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run().MeanUx
	}
	open := run(ObstacleNone, 0)
	blocked := run(ObstacleCylinder, 0.6)
	if blocked >= open {
		t.Errorf("cylinder-obstructed flow %v should be slower than open channel %v", blocked, open)
	}
}

func TestGeometryShapes(t *testing.T) {
	for _, kind := range []ObstacleKind{ObstacleSphere, ObstacleBox, ObstacleCylinder, ObstacleRandom} {
		g, err := GenerateGeometry(10, 10, 10, kind, 0.5, 0.2, 3)
		if err != nil {
			t.Fatal(err)
		}
		solids := 0
		for _, s := range g.Solid {
			if s {
				solids++
			}
		}
		// Walls alone contribute 2*10*10 = 200 cells.
		if solids <= 200 {
			t.Errorf("%v: only %d solid cells, obstacle missing", kind, solids)
		}
		if solids >= len(g.Solid) {
			t.Errorf("%v: grid entirely solid", kind)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := GenerateGeometry(2, 8, 8, ObstacleNone, 0, 0, 1); err == nil {
		t.Error("tiny grid should fail")
	}
}

func TestParamValidation(t *testing.T) {
	g, _ := GenerateGeometry(8, 8, 8, ObstacleNone, 0, 0, 1)
	for _, prm := range []Params{
		{Steps: 0, Omega: 1},
		{Steps: 5, Omega: 0},
		{Steps: 5, Omega: 2.5},
	} {
		if _, err := NewSim(g, prm, nil); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %+v: err = %v, want ErrBadParams", prm, err)
		}
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() Stats {
		g, err := GenerateGeometry(10, 8, 8, ObstacleRandom, 0, 0.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(g, Params{Steps: 15, Omega: 1.1, Accel: 0.002}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
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
	if alberta != 24 {
		t.Errorf("alberta workloads = %d, want 24 (paper ships twenty-four)", alberta)
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
	if rep.Coverage["collide"] == 0 || rep.Coverage["stream"] == 0 {
		t.Errorf("kernel coverage missing: %v", rep.Coverage)
	}
	// lbm in the paper is strongly back-end bound (b = 61.2) with almost
	// no bad speculation (s = 0.4).
	if rep.TopDown.BackEnd < rep.TopDown.BadSpec {
		t.Errorf("expected back-end >> bad-speculation, got %+v", rep.TopDown)
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsRun(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
