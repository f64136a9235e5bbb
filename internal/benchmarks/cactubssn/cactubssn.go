// Package cactubssn reproduces 507.cactuBSSN_r: solving Einstein's
// equations in vacuum on a 3D grid. The substitute kernel evolves a
// BSSN-flavored system of four coupled fields (conformal factor φ, trace of
// extrinsic curvature K, a conformal metric component γ, and the lapse α)
// with finite-difference stencils, RK2 time stepping and Kreiss-Oliger
// dissipation. A workload is a parameter file for the solver; the seven
// Alberta workloads vary the computational parameters, as the paper
// describes ("generated following suggestions for parameter setting from
// the benchmark authors").
package cactubssn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/perf"
)

// Params is the solver parameter file.
type Params struct {
	// N is the grid size per dimension (with one ghost cell each side).
	N int
	// Steps is the number of RK2 time steps.
	Steps int
	// Courant is the time step as a fraction of the grid spacing.
	Courant float64
	// Dissipation is the Kreiss-Oliger coefficient.
	Dissipation float64
	// Amplitude and Sigma shape the initial Gaussian pulse.
	Amplitude float64
	Sigma     float64
	// Lapse couples the gauge field evolution (1+log slicing strength).
	Lapse float64
}

// ErrBadParams reports invalid parameters.
var ErrBadParams = errors.New("cactubssn: bad parameters")

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.N < 8 || p.Steps < 1 || p.Courant <= 0 || p.Courant > 1 ||
		p.Sigma <= 0 || p.Dissipation < 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// fields indexes the evolved variables.
const (
	fPhi = iota
	fK
	fGamma
	fAlpha
	numFields
)

const gridBase = 0xC0_0000_0000

// State holds the evolved fields.
type State struct {
	n int
	// v[f] is field f, flattened (n³).
	v [numFields][]float64
}

func newState(n int) *State {
	s := &State{n: n}
	for f := 0; f < numFields; f++ {
		s.v[f] = make([]float64, n*n*n)
	}
	return s
}

func (s *State) idx(x, y, z int) int { return (z*s.n+y)*s.n + x }

// Solver evolves the system.
type Solver struct {
	prm Params
	cur *State
	rhs *State
	tmp *State
	p   *perf.Profiler
}

// NewSolver initializes the Gaussian pulse initial data.
func NewSolver(prm Params, p *perf.Profiler) (*Solver, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{prm: prm, cur: newState(prm.N), rhs: newState(prm.N), tmp: newState(prm.N), p: p}
	n := prm.N
	c := float64(n-1) / 2
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
				r2 := dx*dx + dy*dy + dz*dz
				g := prm.Amplitude * math.Exp(-r2/(2*prm.Sigma*prm.Sigma))
				i := s.cur.idx(x, y, z)
				s.cur.v[fPhi][i] = g
				s.cur.v[fK][i] = 0
				s.cur.v[fGamma][i] = 1 + 0.1*g
				s.cur.v[fAlpha][i] = 1
			}
		}
	}
	if p != nil {
		p.SetFootprint("bssn_rhs", 8<<10)
		p.SetFootprint("rk_update", 3<<10)
		p.SetFootprint("dissipation", 4<<10)
	}
	return s, nil
}

// lap computes the 7-point Laplacian of field f at (x,y,z) with unit grid
// spacing; boundaries are handled by clamping (outgoing-wave-lite).
func (s *Solver) lap(st *State, f, x, y, z int) float64 {
	n := s.cur.n
	cl := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= n {
			return n - 1
		}
		return v
	}
	c := st.v[f][st.idx(x, y, z)]
	return st.v[f][st.idx(cl(x+1), y, z)] + st.v[f][st.idx(cl(x-1), y, z)] +
		st.v[f][st.idx(x, cl(y+1), z)] + st.v[f][st.idx(x, cl(y-1), z)] +
		st.v[f][st.idx(x, y, cl(z+1))] + st.v[f][st.idx(x, y, cl(z-1))] - 6*c
}

// computeRHS fills s.rhs with the BSSN-flavored right-hand sides:
//
//	∂t φ = -α K / 6
//	∂t K = -∇²α + α (K² + R(γ))          (R approximated by ∇²γ)
//	∂t γ = -2 α ∇²φ                       (conformal coupling)
//	∂t α = -Lapse · α K                   (1+log slicing)
func (s *Solver) computeRHS(st *State) {
	if s.p != nil {
		s.p.Enter("bssn_rhs")
		defer s.p.Leave()
	}
	n := st.n
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := st.idx(x, y, z)
				alpha := st.v[fAlpha][i]
				K := st.v[fK][i]
				lapAlpha := s.lap(st, fAlpha, x, y, z)
				lapGamma := s.lap(st, fGamma, x, y, z)
				lapPhi := s.lap(st, fPhi, x, y, z)
				s.rhs.v[fPhi][i] = -alpha * K / 6
				s.rhs.v[fK][i] = -lapAlpha + alpha*(K*K+lapGamma)
				s.rhs.v[fGamma][i] = -2 * alpha * lapPhi
				s.rhs.v[fAlpha][i] = -s.prm.Lapse * alpha * K
				if s.p != nil && i%32 == 0 {
					s.p.Ops(60)
					s.p.LongOps(1)
					s.p.Load(gridBase + uint64(i)*32)
					s.p.Store(gridBase + uint64(i)*32 + 16)
					// Sparse data-dependent control flow (horizon/
					// excision style guards in the real code).
					s.p.Branch(150, K > 0)
					s.p.Branch(151, lapPhi > 0)
				}
			}
		}
	}
}

// applyDissipation adds Kreiss-Oliger-style smoothing.
func (s *Solver) applyDissipation(st *State, dt float64) {
	if s.prm.Dissipation == 0 {
		return
	}
	if s.p != nil {
		s.p.Enter("dissipation")
		defer s.p.Leave()
	}
	n := st.n
	for f := 0; f < numFields; f++ {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					i := st.idx(x, y, z)
					st.v[f][i] += dt * s.prm.Dissipation * s.lap(st, f, x, y, z)
					if s.p != nil && i%64 == 0 {
						s.p.Ops(16)
						s.p.Load(gridBase + uint64(i)*32)
					}
				}
			}
		}
	}
}

// Step advances one RK2 step.
func (s *Solver) Step() {
	dt := s.prm.Courant
	n := s.cur.n
	total := n * n * n
	// Half step: tmp = cur + dt/2 * rhs(cur).
	s.computeRHS(s.cur)
	if s.p != nil {
		s.p.Enter("rk_update")
	}
	for f := 0; f < numFields; f++ {
		for i := 0; i < total; i++ {
			s.tmp.v[f][i] = s.cur.v[f][i] + 0.5*dt*s.rhs.v[f][i]
		}
	}
	if s.p != nil {
		s.p.Ops(uint64(total) / 4)
		s.p.Leave()
	}
	// Full step: cur += dt * rhs(tmp).
	s.computeRHS(s.tmp)
	if s.p != nil {
		s.p.Enter("rk_update")
	}
	for f := 0; f < numFields; f++ {
		for i := 0; i < total; i++ {
			s.cur.v[f][i] += dt * s.rhs.v[f][i]
		}
	}
	if s.p != nil {
		s.p.Ops(uint64(total) / 4)
		s.p.Leave()
	}
	s.applyDissipation(s.cur, dt)
}

// Norms summarizes the state: L2 norms of each field (the benchmark's
// validation output).
type Norms struct {
	Phi, K, Gamma, Alpha float64
}

// Run evolves the configured number of steps and returns the norms.
func (s *Solver) Run() (Norms, error) {
	for t := 0; t < s.prm.Steps; t++ {
		s.Step()
	}
	n := s.cur.n
	total := float64(n * n * n)
	l2 := func(f int) float64 {
		sum := 0.0
		for _, v := range s.cur.v[f] {
			sum += v * v
		}
		return math.Sqrt(sum / total)
	}
	norms := Norms{Phi: l2(fPhi), K: l2(fK), Gamma: l2(fGamma), Alpha: l2(fAlpha)}
	for _, v := range []float64{norms.Phi, norms.K, norms.Gamma, norms.Alpha} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return norms, errors.New("cactubssn: evolution diverged")
		}
	}
	return norms, nil
}

// Workload is one 507.cactuBSSN_r input.
type Workload struct {
	core.Meta
	Params Params
}

// Benchmark is the 507.cactuBSSN_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "507.cactuBSSN_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Physics: relativity" }

// Workloads returns SPEC-style inputs plus seven Alberta parameter
// variations.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	base := Params{N: 16, Steps: 8, Courant: 0.1, Dissipation: 0.01, Amplitude: 0.05, Sigma: 2.5, Lapse: 2}
	mk := func(name string, kind core.Kind, mod func(*Params)) core.Workload {
		p := base
		mod(&p)
		return Workload{Meta: core.Meta{Name: name, Kind: kind}, Params: p}
	}
	return []core.Workload{
		mk("test", core.KindTest, func(p *Params) { p.N = 10; p.Steps = 3 }),
		mk("train", core.KindTrain, func(p *Params) { p.Steps = 6 }),
		mk("refrate", core.KindRefrate, func(p *Params) { p.N = 20; p.Steps = 14 }),
		mk("alberta.finegrid", core.KindAlberta, func(p *Params) { p.N = 24; p.Steps = 8 }),
		mk("alberta.longrun", core.KindAlberta, func(p *Params) { p.Steps = 30 }),
		mk("alberta.bigpulse", core.KindAlberta, func(p *Params) { p.Amplitude = 0.15; p.Sigma = 1.5 }),
		mk("alberta.lowdiss", core.KindAlberta, func(p *Params) { p.Dissipation = 0.001; p.Steps = 12 }),
		mk("alberta.highdiss", core.KindAlberta, func(p *Params) { p.Dissipation = 0.05; p.Steps = 12 }),
		mk("alberta.fastgauge", core.KindAlberta, func(p *Params) { p.Lapse = 4; p.Steps = 10 }),
		mk("alberta.smallcourant", core.KindAlberta, func(p *Params) { p.Courant = 0.05; p.Steps = 20 }),
	}, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	s := seed + int64(i)
	return Workload{
		Meta: core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Params: Params{
			N:           12 + int(s%4)*4,
			Steps:       6 + int(s%5)*4,
			Courant:     0.05 + 0.025*float64(s%3),
			Dissipation: 0.005 * float64(s%4),
			Amplitude:   0.03 + 0.02*float64(s%4),
			Sigma:       1.5 + 0.5*float64(s%3),
			Lapse:       1 + float64(s%3),
		},
	}, nil
}

// prepared wraps the workload: grid allocation and initial data are part of
// the measured phase (NewSolver is instrumented), so Prepare only validates
// the workload type.
type prepared struct {
	b  *Benchmark
	cw Workload
}

// Prepare implements core.Benchmark.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	cw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	return &prepared{b: b, cw: cw}, nil
}

// Execute implements core.PreparedWorkload: build the solver and evolve.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, cw := pw.b, pw.cw
	solver, err := NewSolver(cw.Params, p)
	if err != nil {
		return core.Result{}, err
	}
	norms, err := solver.Run()
	if err != nil {
		return core.Result{}, fmt.Errorf("cactubssn: %s: %w", cw.Name, err)
	}
	sum := core.NewChecksum().
		AddFloat(norms.Phi).AddFloat(norms.K).
		AddFloat(norms.Gamma).AddFloat(norms.Alpha)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  cw.Name,
		Kind:      cw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
