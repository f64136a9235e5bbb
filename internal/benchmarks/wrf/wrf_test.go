package wrf

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func defaultPhysics() Physics {
	return Physics{Microphysics: true, Radiation: true, SurfaceDrag: true, PeriodicBoundary: true}
}

func TestModelValidation(t *testing.T) {
	bad := []Params{
		{N: 4, Steps: 5, Dt: 0.02},
		{N: 16, Steps: 0, Dt: 0.02},
		{N: 16, Steps: 5, Dt: 0},
		{N: 16, Steps: 5, Dt: 0.5},
	}
	for _, p := range bad {
		if _, err := NewModel(p, nil); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %+v: err = %v, want ErrBadParams", p, err)
		}
	}
}

func TestStormProducesWind(t *testing.T) {
	m, err := NewModel(Params{N: 24, Steps: 15, Dt: 0.02, Dataset: StormKatrina, Physics: defaultPhysics()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fc.MaxWind <= 0 {
		t.Error("storm should produce wind")
	}
	if fc.MinHeight >= 10 {
		t.Error("vortex depression missing")
	}
}

func TestDatasetsDiffer(t *testing.T) {
	run := func(ds StormDataset) Forecast {
		m, err := NewModel(Params{N: 24, Steps: 10, Dt: 0.02, Dataset: ds, Physics: defaultPhysics()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	if run(StormKatrina) == run(StormRusa) {
		t.Error("the two storm datasets should produce different forecasts")
	}
}

func TestMicrophysicsProducesRain(t *testing.T) {
	run := func(micro bool) float64 {
		ph := defaultPhysics()
		ph.Microphysics = micro
		m, err := NewModel(Params{N: 24, Steps: 20, Dt: 0.02, Dataset: StormKatrina, Physics: ph}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fc.TotalRain
	}
	if on, off := run(true), run(false); on <= 0 || off != 0 {
		t.Errorf("rain on=%v off=%v; want positive with microphysics, zero without", on, off)
	}
}

func TestRadiationCools(t *testing.T) {
	ph := defaultPhysics()
	ph.Radiation = false
	m, err := NewModel(Params{N: 20, Steps: 10, Dt: 0.02, Dataset: StormRusa, Physics: ph}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fc.TotalCooling != 0 {
		t.Error("radiation disabled but cooling recorded")
	}
}

func TestDragSlowsWind(t *testing.T) {
	run := func(drag bool) float64 {
		ph := defaultPhysics()
		ph.SurfaceDrag = drag
		m, err := NewModel(Params{N: 24, Steps: 30, Dt: 0.02, Dataset: StormKatrina, Physics: ph}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fc.MaxWind
	}
	if withDrag, noDrag := run(true), run(false); withDrag >= noDrag {
		t.Errorf("drag should reduce peak wind: %v vs %v", withDrag, noDrag)
	}
}

func TestBoundarySchemeMatters(t *testing.T) {
	run := func(periodic bool) Forecast {
		ph := defaultPhysics()
		ph.PeriodicBoundary = periodic
		m, err := NewModel(Params{N: 20, Steps: 20, Dt: 0.02, Dataset: StormRusa, Physics: ph}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	if run(true) == run(false) {
		t.Error("boundary scheme should change the forecast")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Forecast {
		m, err := NewModel(Params{N: 16, Steps: 10, Dt: 0.02, Dataset: StormKatrina, Physics: defaultPhysics()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fc
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
	katrina, rusa := 0, 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
			if w.(Workload).Params.Dataset == StormKatrina {
				katrina++
			} else {
				rusa++
			}
		}
	}
	if alberta != 12 {
		t.Errorf("alberta workloads = %d, want 12 (paper ships twelve)", alberta)
	}
	if katrina == 0 || rusa == 0 {
		t.Error("both storm datasets must be represented")
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
	for _, m := range []string{"advect", "microphysics", "radiation"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsRun(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 13, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
