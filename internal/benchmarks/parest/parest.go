// Package parest reproduces 510.parest_r: finite-element parameter
// estimation. The substitute solves the inverse problem the original (a
// deal.II application for optical tomography) solves in spirit: recover a
// piecewise-constant diffusion coefficient field from observations of the
// solution of -∇·(a∇u) = f on a 2D grid. The forward operator is a
// five-point finite-difference/FEM discretization solved with conjugate
// gradients; the outer loop is projected gradient descent with
// finite-difference gradients and Tikhonov regularization.
package parest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// Params configure one estimation run.
type Params struct {
	// N is the interior grid size (N×N unknowns).
	N int
	// Blocks partitions the domain into Blocks×Blocks coefficient
	// patches (the estimated parameters).
	Blocks int
	// Noise is the relative observation noise.
	Noise float64
	// Lambda is the Tikhonov regularization weight.
	Lambda float64
	// OuterIters is the number of gradient-descent iterations.
	OuterIters int
	// CGTol is the inner conjugate-gradient tolerance.
	CGTol float64
	// Seed drives the hidden true coefficients and the noise.
	Seed int64
}

// ErrBadParams reports an invalid configuration.
var ErrBadParams = errors.New("parest: bad parameters")

// Validate checks the configuration.
func (p Params) Validate() error {
	if p.N < 4 || p.Blocks < 1 || p.Blocks > p.N || p.OuterIters < 1 ||
		p.CGTol <= 0 || p.Lambda < 0 || p.Noise < 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

const solBase = 0x100_0000_0000

// Problem is one inverse problem instance.
type Problem struct {
	prm  Params
	f    []float64 // source term
	obs  []float64 // noisy observation of the true solution
	true []float64 // hidden true block coefficients
	p    *perf.Profiler
	// CGIterations accumulates inner iterations (work metric).
	CGIterations uint64
}

// blockOf maps grid cell (x,y) to its coefficient patch.
func (pb *Problem) blockOf(x, y int) int {
	bx := x * pb.prm.Blocks / pb.prm.N
	by := y * pb.prm.Blocks / pb.prm.N
	return by*pb.prm.Blocks + bx
}

// NewProblem builds the instance: hidden coefficients, source, observation.
func NewProblem(prm Params, p *perf.Profiler) (*Problem, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(prm.Seed))
	pb := &Problem{prm: prm, p: p}
	nb := prm.Blocks * prm.Blocks
	pb.true = make([]float64, nb)
	for i := range pb.true {
		pb.true[i] = 0.5 + 1.5*rng.Float64()
	}
	n := prm.N
	pb.f = make([]float64, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			// Smooth source with a couple of bumps.
			fx := float64(x) / float64(n-1)
			fy := float64(y) / float64(n-1)
			pb.f[y*n+x] = math.Sin(math.Pi*fx)*math.Sin(math.Pi*fy) +
				0.5*math.Sin(3*math.Pi*fx)*math.Sin(2*math.Pi*fy)
		}
	}
	if p != nil {
		p.SetFootprint("apply_operator", 5<<10)
		p.SetFootprint("cg_solve", 4<<10)
		p.SetFootprint("gradient", 3<<10)
	}
	uTrue, err := pb.Solve(pb.true)
	if err != nil {
		return nil, err
	}
	pb.obs = make([]float64, len(uTrue))
	for i, v := range uTrue {
		pb.obs[i] = v * (1 + prm.Noise*(2*rng.Float64()-1))
	}
	return pb, nil
}

// applyA computes (A(coeffs) u)[i] for the five-point operator with
// homogeneous Dirichlet boundaries and harmonic-mean edge coefficients.
func (pb *Problem) applyA(coeffs, u, out []float64) {
	if pb.p != nil {
		pb.p.Enter("apply_operator")
		defer pb.p.Leave()
	}
	n := pb.prm.N
	get := func(x, y int) float64 {
		if x < 0 || x >= n || y < 0 || y >= n {
			return 0 // Dirichlet
		}
		return u[y*n+x]
	}
	edge := func(x1, y1, x2, y2 int) float64 {
		a := coeffs[pb.blockOf(x1, y1)]
		b := a
		if x2 >= 0 && x2 < n && y2 >= 0 && y2 < n {
			b = coeffs[pb.blockOf(x2, y2)]
		}
		return 2 * a * b / (a + b)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			c := u[i]
			aE := edge(x, y, x+1, y)
			aW := edge(x, y, x-1, y)
			aN := edge(x, y, x, y+1)
			aS := edge(x, y, x, y-1)
			out[i] = (aE+aW+aN+aS)*c -
				aE*get(x+1, y) - aW*get(x-1, y) -
				aN*get(x, y+1) - aS*get(x, y-1)
			if pb.p != nil && i%16 == 0 {
				pb.p.Ops(24)
			}
		}
	}
	if pb.p != nil {
		// The per-site load/store pairs of the loop above, hoisted into one
		// batched call: every 16th cell reads its solution entry and writes
		// the neighbouring field of the same record (same cache line, so
		// the pair costs one probe).
		pb.p.LoadStoreRange(solBase, 16*8, uint64(n*n+15)/16)
	}
}

// Solve runs conjugate gradients for A(coeffs) u = f.
func (pb *Problem) Solve(coeffs []float64) ([]float64, error) {
	for _, c := range coeffs {
		if c <= 0 {
			return nil, fmt.Errorf("%w: non-positive coefficient", ErrBadParams)
		}
	}
	if pb.p != nil {
		pb.p.Enter("cg_solve")
		defer pb.p.Leave()
	}
	n2 := pb.prm.N * pb.prm.N
	u := make([]float64, n2)
	r := append([]float64(nil), pb.f...)
	d := append([]float64(nil), r...)
	Ad := make([]float64, n2)
	rr := dot(r, r)
	target := pb.prm.CGTol * pb.prm.CGTol * rr
	maxIter := 4 * n2
	for iter := 0; iter < maxIter && rr > target && rr > 1e-30; iter++ {
		pb.applyA(coeffs, d, Ad)
		alpha := rr / dot(d, Ad)
		for i := range u {
			u[i] += alpha * d[i]
			r[i] -= alpha * Ad[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		for i := range d {
			d[i] = r[i] + beta*d[i]
		}
		rr = rrNew
		pb.CGIterations++
		if pb.p != nil {
			pb.p.OpsBranch(uint64(n2)/2, 140, rr > target)
			pb.p.LongOps(2)
		}
		if math.IsNaN(rr) {
			return nil, errors.New("parest: CG diverged")
		}
	}
	return u, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// misfit evaluates the regularized objective at coeffs.
func (pb *Problem) misfit(coeffs []float64) (float64, error) {
	u, err := pb.Solve(coeffs)
	if err != nil {
		return 0, err
	}
	m := 0.0
	for i := range u {
		d := u[i] - pb.obs[i]
		m += d * d
	}
	reg := 0.0
	for _, c := range coeffs {
		d := c - 1
		reg += d * d
	}
	return m + pb.prm.Lambda*reg, nil
}

// EstimateResult is the estimation outcome.
type EstimateResult struct {
	Coeffs    []float64
	Objective float64
	// TrueError is the L2 distance between estimated and hidden true
	// coefficients.
	TrueError    float64
	CGIterations uint64
}

// Estimate recovers the coefficients by projected gradient descent with
// central finite-difference gradients over the patch parameters.
func (pb *Problem) Estimate() (EstimateResult, error) {
	nb := pb.prm.Blocks * pb.prm.Blocks
	coeffs := make([]float64, nb)
	for i := range coeffs {
		coeffs[i] = 1 // flat initial guess
	}
	obj, err := pb.misfit(coeffs)
	if err != nil {
		return EstimateResult{}, err
	}
	const h = 1e-3
	step := 0.5
	grad := make([]float64, nb)
	for outer := 0; outer < pb.prm.OuterIters; outer++ {
		if pb.p != nil {
			pb.p.Enter("gradient")
		}
		for k := 0; k < nb; k++ {
			orig := coeffs[k]
			coeffs[k] = orig + h
			fp, err := pb.misfit(coeffs)
			if err != nil {
				return EstimateResult{}, err
			}
			coeffs[k] = orig - h
			fm, err := pb.misfit(coeffs)
			if err != nil {
				return EstimateResult{}, err
			}
			coeffs[k] = orig
			grad[k] = (fp - fm) / (2 * h)
		}
		if pb.p != nil {
			pb.p.Ops(uint64(nb) * 8)
			pb.p.Leave()
		}
		// Backtracking line search with projection to positive coeffs.
		improved := false
		for try := 0; try < 8; try++ {
			trial := make([]float64, nb)
			for k := range trial {
				trial[k] = math.Max(0.05, coeffs[k]-step*grad[k])
			}
			tObj, err := pb.misfit(trial)
			if err != nil {
				return EstimateResult{}, err
			}
			if tObj < obj {
				copy(coeffs, trial)
				obj = tObj
				improved = true
				step *= 1.2
				break
			}
			step /= 2
		}
		if !improved {
			break // converged
		}
	}
	res := EstimateResult{Coeffs: coeffs, Objective: obj, CGIterations: pb.CGIterations}
	for k := range coeffs {
		d := coeffs[k] - pb.true[k]
		res.TrueError += d * d
	}
	res.TrueError = math.Sqrt(res.TrueError / float64(nb))
	return res, nil
}

// Workload is one 510.parest_r input.
type Workload struct {
	core.Meta
	Params Params
}

// Benchmark is the 510.parest_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "510.parest_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Biomedical imaging: parameter estimation" }

// Workloads returns SPEC-style inputs plus five Alberta parameter
// variations (Table II lists eight parest workloads in total).
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, p Params) core.Workload {
		return Workload{Meta: core.Meta{Name: name, Kind: kind}, Params: p}
	}
	return []core.Workload{
		mk("test", core.KindTest, Params{N: 8, Blocks: 2, Noise: 0.01, Lambda: 0.01, OuterIters: 2, CGTol: 1e-6, Seed: 1}),
		mk("train", core.KindTrain, Params{N: 12, Blocks: 2, Noise: 0.01, Lambda: 0.01, OuterIters: 4, CGTol: 1e-7, Seed: 2}),
		mk("refrate", core.KindRefrate, Params{N: 16, Blocks: 3, Noise: 0.01, Lambda: 0.01, OuterIters: 6, CGTol: 1e-8, Seed: 3}),
		mk("alberta.fine", core.KindAlberta, Params{N: 20, Blocks: 2, Noise: 0.01, Lambda: 0.01, OuterIters: 4, CGTol: 1e-8, Seed: 11}),
		mk("alberta.manyblocks", core.KindAlberta, Params{N: 16, Blocks: 4, Noise: 0.01, Lambda: 0.02, OuterIters: 4, CGTol: 1e-7, Seed: 12}),
		mk("alberta.noisy", core.KindAlberta, Params{N: 14, Blocks: 3, Noise: 0.1, Lambda: 0.05, OuterIters: 5, CGTol: 1e-7, Seed: 13}),
		mk("alberta.tightcg", core.KindAlberta, Params{N: 14, Blocks: 2, Noise: 0.01, Lambda: 0.01, OuterIters: 4, CGTol: 1e-10, Seed: 14}),
		mk("alberta.unregularized", core.KindAlberta, Params{N: 12, Blocks: 3, Noise: 0.02, Lambda: 0, OuterIters: 6, CGTol: 1e-7, Seed: 15}),
	}, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	s := seed + int64(i)
	return Workload{
		Meta: core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Params: Params{
			N: 10 + int(s%4)*2, Blocks: 2 + int(s%3),
			Noise: 0.01 * float64(s%5), Lambda: 0.01 + 0.01*float64(s%3),
			OuterIters: 3 + int(s%3), CGTol: 1e-7, Seed: s,
		},
	}, nil
}

// prepared wraps the workload: problem assembly and estimation are both part
// of the measured phase (NewProblem is instrumented), so Prepare only
// validates the workload type.
type prepared struct {
	b  *Benchmark
	pw Workload
}

// Prepare implements core.Benchmark.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	pw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	return &prepared{b: b, pw: pw}, nil
}

// Execute implements core.PreparedWorkload: assemble and estimate.
func (ps *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, pw := ps.b, ps.pw
	pb, err := NewProblem(pw.Params, p)
	if err != nil {
		return core.Result{}, fmt.Errorf("parest: %s: %w", pw.Name, err)
	}
	res, err := pb.Estimate()
	if err != nil {
		return core.Result{}, fmt.Errorf("parest: %s: %w", pw.Name, err)
	}
	sum := core.NewChecksum().
		AddFloat(res.Objective).
		AddFloat(res.TrueError).
		AddUint64(res.CGIterations)
	for _, c := range res.Coeffs {
		sum = sum.AddFloat(c)
	}
	return core.Result{
		Benchmark: b.Name(),
		Workload:  pw.Name,
		Kind:      pw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
