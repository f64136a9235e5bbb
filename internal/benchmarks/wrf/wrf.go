// Package wrf reproduces 521.wrf_r: a numerical weather prediction step.
// The substitute model integrates the 2D shallow-water equations with
// moisture, seeded by storm-like initial conditions standing in for the
// paper's hurricane Katrina and typhoon Rusa datasets. Workload parameters
// toggle the same physics-option families the Alberta generation script
// manipulates: microphysics, long-wave radiation, surface (drag) scheme and
// the boundary-layer scheme.
package wrf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/perf"
)

// StormDataset selects the initial-condition builder (the WRF input file).
type StormDataset int

// The two source datasets of the paper.
const (
	// StormKatrina is a large single-vortex initialization.
	StormKatrina StormDataset = iota
	// StormRusa is a smaller, faster-moving double-vortex initialization.
	StormRusa
)

// String names the dataset.
func (d StormDataset) String() string {
	switch d {
	case StormKatrina:
		return "katrina"
	case StormRusa:
		return "rusa"
	default:
		return fmt.Sprintf("StormDataset(%d)", int(d))
	}
}

// Physics toggles the optional schemes (the namelist options).
type Physics struct {
	// Microphysics enables condensation/rain moisture sinks.
	Microphysics bool
	// Radiation enables long-wave radiative cooling.
	Radiation bool
	// SurfaceDrag enables surface momentum drag.
	SurfaceDrag bool
	// PeriodicBoundary selects periodic (true) or reflective (false)
	// lateral boundaries.
	PeriodicBoundary bool
}

// Params is the run configuration.
type Params struct {
	N       int // grid size
	Steps   int
	Dt      float64
	Dataset StormDataset
	Physics Physics
}

// ErrBadParams reports an invalid configuration.
var ErrBadParams = errors.New("wrf: bad parameters")

const gridBase = 0xD0_0000_0000

// Model is the shallow-water state: height h, momenta hu/hv, moisture q.
type Model struct {
	prm        Params
	h, hu, hv  []float64
	q          []float64
	nh, nhu    []float64
	nhv, nq    []float64
	p          *perf.Profiler
	rainTotal  float64
	coolingSum float64
}

// NewModel builds the storm initial conditions.
func NewModel(prm Params, p *perf.Profiler) (*Model, error) {
	if prm.N < 8 || prm.Steps < 1 || prm.Dt <= 0 || prm.Dt > 0.2 {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, prm)
	}
	n := prm.N
	m := &Model{
		prm: prm,
		h:   make([]float64, n*n), hu: make([]float64, n*n),
		hv: make([]float64, n*n), q: make([]float64, n*n),
		nh: make([]float64, n*n), nhu: make([]float64, n*n),
		nhv: make([]float64, n*n), nq: make([]float64, n*n),
		p: p,
	}
	addVortex := func(cx, cy, amp, radius float64) {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dx, dy := float64(x)-cx, float64(y)-cy
				r2 := dx*dx + dy*dy
				g := amp * math.Exp(-r2/(2*radius*radius))
				i := y*n + x
				m.h[i] += -g // low-pressure depression
				// Cyclonic rotation around the center.
				m.hu[i] += g * (-dy) / radius
				m.hv[i] += g * dx / radius
				m.q[i] += 0.5 * g
			}
		}
	}
	for i := range m.h {
		m.h[i] = 10 // mean depth
		m.q[i] = 0.2
	}
	switch prm.Dataset {
	case StormKatrina:
		addVortex(float64(n)/2, float64(n)/2, 2.0, float64(n)/6)
	case StormRusa:
		addVortex(float64(n)/3, float64(n)/3, 1.2, float64(n)/10)
		addVortex(2*float64(n)/3, 2*float64(n)/3, 1.0, float64(n)/12)
	default:
		return nil, fmt.Errorf("%w: unknown dataset %d", ErrBadParams, prm.Dataset)
	}
	if p != nil {
		p.SetFootprint("advect", 6<<10)
		p.SetFootprint("pressure", 4<<10)
		p.SetFootprint("microphysics", 3<<10)
		p.SetFootprint("radiation", 2<<10)
		p.SetFootprint("boundary", 2<<10)
	}
	return m, nil
}

// at reads index with the configured boundary scheme.
func (m *Model) at(f []float64, x, y int) float64 {
	n := m.prm.N
	if m.prm.Physics.PeriodicBoundary {
		x = (x + n) % n
		y = (y + n) % n
	} else {
		if x < 0 {
			x = 0
		}
		if x >= n {
			x = n - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= n {
			y = n - 1
		}
	}
	return f[y*n+x]
}

// Step advances one time step (Lax-Friedrichs flux + source terms).
func (m *Model) Step() {
	n := m.prm.N
	dt := m.prm.Dt
	const grav = 9.8
	if m.p != nil {
		m.p.Enter("advect")
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			// Lax-Friedrichs average + central flux differences.
			avg := func(f []float64) float64 {
				return 0.25 * (m.at(f, x+1, y) + m.at(f, x-1, y) + m.at(f, x, y+1) + m.at(f, x, y-1))
			}
			ddx := func(f []float64) float64 { return 0.5 * (m.at(f, x+1, y) - m.at(f, x-1, y)) }
			ddy := func(f []float64) float64 { return 0.5 * (m.at(f, x, y+1) - m.at(f, x, y-1)) }

			h := m.h[i]
			if h < 1e-6 {
				h = 1e-6
			}
			u := m.hu[i] / h
			v := m.hv[i] / h

			m.nh[i] = avg(m.h) - dt*(ddx(m.hu)+ddy(m.hv))
			m.nhu[i] = avg(m.hu) - dt*(u*ddx(m.hu)+v*ddy(m.hu)+grav*h*ddx(m.h))
			m.nhv[i] = avg(m.hv) - dt*(u*ddx(m.hv)+v*ddy(m.hv)+grav*h*ddy(m.h))
			m.nq[i] = avg(m.q) - dt*(u*ddx(m.q)+v*ddy(m.q))
			if m.p != nil && i%16 == 0 {
				m.p.Ops(80)
				m.p.LongOps(1)
				m.p.Load(gridBase + uint64(i)*32)
				m.p.Store(gridBase + uint64(i)*32 + 8)
				// Upwinding-style data-dependent guards.
				m.p.Branch(111, u > 0)
				m.p.Branch(112, v > 0)
			}
		}
	}
	if m.p != nil {
		m.p.Leave()
	}
	// Source terms (the physics options). Disabled schemes still pay
	// their per-cell guard checks, as in the real model's option
	// dispatch, so their methods never drop to exactly zero time.
	ph := m.prm.Physics
	if !ph.Microphysics && m.p != nil {
		m.p.Enter("microphysics")
		m.p.Ops(uint64(len(m.nq)) / 48)
		m.p.Leave()
	}
	if ph.Microphysics {
		if m.p != nil {
			m.p.Enter("microphysics")
		}
		for i := range m.nq {
			if m.nq[i] > 0.5 {
				rain := 0.1 * (m.nq[i] - 0.5)
				m.nq[i] -= rain
				m.nh[i] += 0.05 * rain // latent heating bumps the column
				m.rainTotal += rain
				if m.p != nil && i%32 == 0 {
					m.p.Ops(8)
					m.p.Branch(110, true)
				}
			}
		}
		if m.p != nil {
			m.p.Leave()
		}
	}
	if !ph.Radiation && m.p != nil {
		m.p.Enter("radiation")
		m.p.Ops(uint64(len(m.nh)) / 48)
		m.p.Leave()
	}
	if ph.Radiation {
		if m.p != nil {
			m.p.Enter("radiation")
		}
		for i := range m.nh {
			cool := 0.0005 * (m.nh[i] - 10)
			m.nh[i] -= cool
			m.coolingSum += math.Abs(cool)
		}
		if m.p != nil {
			m.p.Ops(uint64(len(m.nh)) / 4)
			m.p.LongOps(4)
			m.p.Leave()
		}
	}
	if ph.SurfaceDrag {
		for i := range m.nhu {
			m.nhu[i] *= 0.998
			m.nhv[i] *= 0.998
		}
	}
	if m.p != nil {
		m.p.Enter("boundary")
		m.p.Ops(uint64(4 * n))
		m.p.Leave()
	}
	m.h, m.nh = m.nh, m.h
	m.hu, m.nhu = m.nhu, m.hu
	m.hv, m.nhv = m.nhv, m.hv
	m.q, m.nq = m.nq, m.q
}

// Forecast summarizes the run.
type Forecast struct {
	MinHeight, MaxWind float64
	TotalRain          float64
	TotalCooling       float64
	MeanMoisture       float64
}

// Run integrates and summarizes.
func (m *Model) Run() (Forecast, error) {
	for t := 0; t < m.prm.Steps; t++ {
		m.Step()
	}
	var fc Forecast
	fc.MinHeight = math.Inf(1)
	for i := range m.h {
		if m.h[i] < fc.MinHeight {
			fc.MinHeight = m.h[i]
		}
		h := math.Max(m.h[i], 1e-6)
		wind := math.Hypot(m.hu[i]/h, m.hv[i]/h)
		if wind > fc.MaxWind {
			fc.MaxWind = wind
		}
		fc.MeanMoisture += m.q[i]
	}
	fc.MeanMoisture /= float64(len(m.q))
	fc.TotalRain = m.rainTotal
	fc.TotalCooling = m.coolingSum
	if math.IsNaN(fc.MinHeight) || math.IsNaN(fc.MaxWind) ||
		math.IsInf(fc.MaxWind, 0) {
		return fc, errors.New("wrf: forecast diverged")
	}
	return fc, nil
}

// Workload is one 521.wrf_r input.
type Workload struct {
	core.Meta
	Params Params
}

// Benchmark is the 521.wrf_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "521.wrf_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Weather forecasting" }

// Workloads returns SPEC-style inputs plus the twelve Alberta workloads:
// two storm datasets × six physics-option combinations (the script "allows
// for the easy manipulation of different physics options").
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, ds StormDataset, ph Physics, n, steps int) core.Workload {
		return Workload{
			Meta:   core.Meta{Name: name, Kind: kind},
			Params: Params{N: n, Steps: steps, Dt: 0.02, Dataset: ds, Physics: ph},
		}
	}
	allOn := Physics{Microphysics: true, Radiation: true, SurfaceDrag: true, PeriodicBoundary: true}
	ws := []core.Workload{
		mk("test", core.KindTest, StormKatrina, allOn, 16, 5),
		mk("train", core.KindTrain, StormKatrina, allOn, 32, 25),
		mk("refrate", core.KindRefrate, StormKatrina, allOn, 48, 60),
	}
	options := []struct {
		tag string
		ph  Physics
	}{
		{"allphysics", allOn},
		{"nomicro", Physics{Radiation: true, SurfaceDrag: true, PeriodicBoundary: true}},
		{"norad", Physics{Microphysics: true, SurfaceDrag: true, PeriodicBoundary: true}},
		{"nodrag", Physics{Microphysics: true, Radiation: true, PeriodicBoundary: true}},
		{"reflective", Physics{Microphysics: true, Radiation: true, SurfaceDrag: true}},
		{"dynamicsonly", Physics{PeriodicBoundary: true}},
	}
	for _, ds := range []StormDataset{StormKatrina, StormRusa} {
		for _, opt := range options {
			ws = append(ws, mk(
				fmt.Sprintf("alberta.%s-%s", ds, opt.tag),
				core.KindAlberta, ds, opt.ph, 32, 30))
		}
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	s := seed + int64(i)
	return Workload{
		Meta: core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Params: Params{
			N: 24 + int(s%3)*8, Steps: 15 + int(s%4)*10, Dt: 0.02,
			Dataset: StormDataset(s % 2),
			Physics: Physics{
				Microphysics:     s%2 == 0,
				Radiation:        s%3 != 0,
				SurfaceDrag:      s%5 != 0,
				PeriodicBoundary: s%7 != 0,
			},
		},
	}, nil
}

// prepared wraps the workload: model construction initializes the fields the
// integration then evolves, so the whole model lifecycle belongs to the
// measured phase and Prepare only validates the workload type.
type prepared struct {
	b  *Benchmark
	ww Workload
}

// Prepare implements core.Benchmark.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	ww, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	return &prepared{b: b, ww: ww}, nil
}

// Execute implements core.PreparedWorkload: build the model and integrate.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, ww := pw.b, pw.ww
	model, err := NewModel(ww.Params, p)
	if err != nil {
		return core.Result{}, err
	}
	fc, err := model.Run()
	if err != nil {
		return core.Result{}, fmt.Errorf("wrf: %s: %w", ww.Name, err)
	}
	sum := core.NewChecksum().
		AddFloat(fc.MinHeight).AddFloat(fc.MaxWind).
		AddFloat(fc.TotalRain).AddFloat(fc.TotalCooling).
		AddFloat(fc.MeanMoisture)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  ww.Name,
		Kind:      ww.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
