// Package lbm reproduces 519.lbm_r: a D3Q19 lattice-Boltzmann (BGK)
// simulation of incompressible fluid flowing through a channel containing
// obstacles. A workload is an obstacle-geometry description plus command
// line parameters (number of steps, relaxation). The twenty-four Alberta
// workloads vary the shape and size of the objects, the object density and
// the simulation parameters, exactly the knobs the paper lists.
package lbm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// q is the number of discrete velocities in D3Q19.
const q = 19

// D3Q19 velocity set and weights.
var (
	cx = [q]int{0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0}
	cy = [q]int{0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1}
	cz = [q]int{0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1}
	wt = [q]float64{
		1.0 / 3,
		1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	}
	// opposite[i] is the bounce-back direction of i.
	opposite [q]int
)

func init() {
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			if cx[j] == -cx[i] && cy[j] == -cy[i] && cz[j] == -cz[i] {
				opposite[i] = j
			}
		}
	}
}

// ObstacleKind selects the geometry generator.
type ObstacleKind int

// Obstacle shapes (the paper varies "the shape and size of the objects").
const (
	ObstacleNone ObstacleKind = iota
	ObstacleSphere
	ObstacleBox
	ObstacleCylinder
	ObstacleRandom // random porous blockage
)

// String names the kind.
func (k ObstacleKind) String() string {
	switch k {
	case ObstacleNone:
		return "none"
	case ObstacleSphere:
		return "sphere"
	case ObstacleBox:
		return "box"
	case ObstacleCylinder:
		return "cylinder"
	case ObstacleRandom:
		return "random"
	default:
		return fmt.Sprintf("ObstacleKind(%d)", int(k))
	}
}

// Geometry is the channel description (the benchmark's ASCII input file).
type Geometry struct {
	NX, NY, NZ int
	// Solid marks obstacle cells.
	Solid []bool
}

// idx flattens coordinates.
func (g *Geometry) idx(x, y, z int) int { return (z*g.NY+y)*g.NX + x }

// GenerateGeometry builds the channel with the requested obstacle.
func GenerateGeometry(nx, ny, nz int, kind ObstacleKind, size float64, density float64, seed int64) (*Geometry, error) {
	if nx < 4 || ny < 4 || nz < 4 {
		return nil, fmt.Errorf("lbm: grid %dx%dx%d too small", nx, ny, nz)
	}
	g := &Geometry{NX: nx, NY: ny, NZ: nz, Solid: make([]bool, nx*ny*nz)}
	cxf, cyf, czf := float64(nx)/2, float64(ny)/2, float64(nz)/2
	r := size * float64(min(nx, ny, nz)) / 2
	rng := rand.New(rand.NewSource(seed))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				// Channel walls on Y boundaries.
				if y == 0 || y == ny-1 {
					g.Solid[g.idx(x, y, z)] = true
					continue
				}
				dx, dy, dz := float64(x)-cxf, float64(y)-cyf, float64(z)-czf
				solid := false
				switch kind {
				case ObstacleSphere:
					solid = dx*dx+dy*dy+dz*dz < r*r
				case ObstacleBox:
					solid = math.Abs(dx) < r && math.Abs(dy) < r && math.Abs(dz) < r
				case ObstacleCylinder:
					solid = dx*dx+dy*dy < r*r
				case ObstacleRandom:
					solid = rng.Float64() < density
				}
				g.Solid[g.idx(x, y, z)] = solid
			}
		}
	}
	return g, nil
}

// Params are the command-line arguments of the benchmark.
type Params struct {
	Steps int
	// Omega is the BGK relaxation parameter (0 < omega < 2).
	Omega float64
	// Accel is the body force driving flow along X.
	Accel float64
}

// ErrBadParams reports invalid simulation parameters.
var ErrBadParams = errors.New("lbm: bad parameters")

// Sim is the lattice state.
type Sim struct {
	g    *Geometry
	f    []float64 // current distributions, cell-major [cell*q + dir]
	fNew []float64
	prm  Params
	p    *perf.Profiler
}

const cellBase = 0xA0_0000_0000

// NewSim initializes the lattice at rest.
func NewSim(g *Geometry, prm Params, p *perf.Profiler) (*Sim, error) {
	if prm.Steps <= 0 || prm.Omega <= 0 || prm.Omega >= 2 {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, prm)
	}
	n := g.NX * g.NY * g.NZ
	s := &Sim{g: g, f: make([]float64, n*q), fNew: make([]float64, n*q), prm: prm}
	s.Reset(p)
	return s, nil
}

// Reset returns the lattice to its initial at-rest state and re-aims the
// sim at p, recycling the two distribution arrays: a reset sim is
// bit-identical to a fresh NewSim (f holds the rest-state weights, fNew is
// zeroed), so one pair of lattice allocations serves every repetition.
func (s *Sim) Reset(p *perf.Profiler) {
	s.p = p
	n := s.g.NX * s.g.NY * s.g.NZ
	for c := 0; c < n; c++ {
		for i := 0; i < q; i++ {
			s.f[c*q+i] = wt[i]
		}
	}
	clear(s.fNew)
	if p != nil {
		p.SetFootprint("collide", 6<<10)
		p.SetFootprint("stream", 4<<10)
	}
}

// step advances one time step: collide then stream with bounce-back.
func (s *Sim) step() {
	g := s.g
	n := g.NX * g.NY * g.NZ
	// Collision (BGK) with a body force on fluid cells.
	if s.p != nil {
		s.p.Enter("collide")
	}
	for c := 0; c < n; c++ {
		if g.Solid[c] {
			continue
		}
		base := c * q
		var rho, ux, uy, uz float64
		for i := 0; i < q; i++ {
			fi := s.f[base+i]
			rho += fi
			ux += fi * float64(cx[i])
			uy += fi * float64(cy[i])
			uz += fi * float64(cz[i])
		}
		ux = ux/rho + s.prm.Accel
		uy /= rho
		uz /= rho
		usq := ux*ux + uy*uy + uz*uz
		for i := 0; i < q; i++ {
			cu := float64(cx[i])*ux + float64(cy[i])*uy + float64(cz[i])*uz
			feq := wt[i] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*usq)
			s.f[base+i] += s.prm.Omega * (feq - s.f[base+i])
		}
		if s.p != nil && c%8 == 0 {
			// Sparse data-dependent guard (flow-direction dependent
			// handling in the real kernel's flag tests), fused with the
			// cell's arithmetic work.
			s.p.OpsBranch(q*6, 91, ux > 0)
			s.p.LongOps(2)
			s.p.LoadStore(cellBase + uint64(c)*152)
		}
	}
	if s.p != nil {
		s.p.Leave()
		s.p.Enter("stream")
	}
	// Streaming with periodic X/Z boundaries and bounce-back at solids.
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				c := g.idx(x, y, z)
				if g.Solid[c] {
					continue
				}
				for i := 0; i < q; i++ {
					tx := (x + cx[i] + g.NX) % g.NX
					ty := y + cy[i]
					tz := (z + cz[i] + g.NZ) % g.NZ
					if ty < 0 || ty >= g.NY {
						// Should not happen: walls at y=0 and ny-1
						// absorb via bounce-back below.
						continue
					}
					t := g.idx(tx, ty, tz)
					if g.Solid[t] {
						// Bounce back into the source cell.
						s.fNew[c*q+opposite[i]] = s.f[c*q+i]
					} else {
						s.fNew[t*q+i] = s.f[c*q+i]
					}
				}
				if s.p != nil && c%16 == 0 {
					s.p.OpsBranch(q*3, 90, g.Solid[(c+1)%n])
					s.p.Load(cellBase + uint64(c)*152)
					s.p.Store(cellBase + uint64((c+g.NX))*152)
				}
			}
		}
	}
	// Solid cells keep their (irrelevant) distributions.
	for c := 0; c < n; c++ {
		if g.Solid[c] {
			copy(s.fNew[c*q:(c+1)*q], s.f[c*q:(c+1)*q])
		}
	}
	s.f, s.fNew = s.fNew, s.f
	if s.p != nil {
		s.p.Leave()
	}
}

// Stats summarize the flow field.
type Stats struct {
	TotalMass  float64
	MeanUx     float64
	KineticE   float64
	FluidCells int
}

// Run advances the configured number of steps and reports statistics.
func (s *Sim) Run() Stats {
	for t := 0; t < s.prm.Steps; t++ {
		s.step()
	}
	g := s.g
	n := g.NX * g.NY * g.NZ
	var st Stats
	for c := 0; c < n; c++ {
		if g.Solid[c] {
			continue
		}
		st.FluidCells++
		base := c * q
		var rho, ux, uy, uz float64
		for i := 0; i < q; i++ {
			fi := s.f[base+i]
			rho += fi
			ux += fi * float64(cx[i])
			uy += fi * float64(cy[i])
			uz += fi * float64(cz[i])
		}
		st.TotalMass += rho
		if rho > 0 {
			st.MeanUx += ux / rho
			st.KineticE += (ux*ux + uy*uy + uz*uz) / rho
		}
	}
	if st.FluidCells > 0 {
		st.MeanUx /= float64(st.FluidCells)
	}
	return st
}

// Workload is one 519.lbm_r input.
type Workload struct {
	core.Meta
	NX, NY, NZ int
	Kind       ObstacleKind
	Size       float64
	Density    float64
	Seed       int64
	Params     Params
}

// Benchmark is the 519.lbm_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "519.lbm_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Fluid dynamics (Lattice Boltzmann)" }

// Workloads returns SPEC-style inputs plus twenty-four Alberta workloads
// varying obstacle shape, size, density and step count.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, ok ObstacleKind, size, density float64, steps int, seed int64) core.Workload {
		return Workload{
			Meta: core.Meta{Name: name, Kind: kind},
			NX:   16, NY: 12, NZ: 12,
			Kind: ok, Size: size, Density: density, Seed: seed,
			Params: Params{Steps: steps, Omega: 1.2, Accel: 0.003},
		}
	}
	ws := []core.Workload{
		mk("test", core.KindTest, ObstacleSphere, 0.4, 0, 4, 1),
		mk("train", core.KindTrain, ObstacleSphere, 0.4, 0, 20, 2),
		mk("refrate", core.KindRefrate, ObstacleSphere, 0.4, 0, 60, 3),
	}
	shapes := []ObstacleKind{ObstacleSphere, ObstacleBox, ObstacleCylinder, ObstacleRandom}
	sizes := []float64{0.25, 0.5}
	steps := []int{16, 32, 48}
	i := 0
	for _, sh := range shapes {
		for _, sz := range sizes {
			for _, st := range steps {
				density := 0.0
				if sh == ObstacleRandom {
					density = 0.05 + 0.05*float64(i%3)
				}
				ws = append(ws, mk(
					fmt.Sprintf("alberta.%s-s%.0f-t%d", sh, sz*100, st),
					core.KindAlberta, sh, sz, density, st, 100+int64(i)))
				i++
			}
		}
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	shapes := []ObstacleKind{ObstacleSphere, ObstacleBox, ObstacleCylinder, ObstacleRandom}
	return Workload{
		Meta: core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		NX:   12 + (i%3)*4, NY: 10 + (i%2)*4, NZ: 10,
		Kind: shapes[i%len(shapes)], Size: 0.2 + 0.1*float64(i%4),
		Density: 0.04 * float64(i%3), Seed: seed + int64(i),
		Params: Params{Steps: 12 + (i%4)*8, Omega: 0.8 + 0.2*float64(i%5), Accel: 0.003},
	}, nil
}

// prepared holds the generated geometry (immutable after Prepare) and the
// sim whose lattice arrays are the reusable scratch, reset in place at the
// start of every Execute.
type prepared struct {
	b   *Benchmark
	lw  Workload
	sim *Sim
}

// Prepare implements core.Benchmark: generate the geometry and allocate the
// lattice once, uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	lw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	g, err := GenerateGeometry(lw.NX, lw.NY, lw.NZ, lw.Kind, lw.Size, lw.Density, lw.Seed)
	if err != nil {
		return nil, err
	}
	sim, err := NewSim(g, lw.Params, nil)
	if err != nil {
		return nil, err
	}
	return &prepared{b: b, lw: lw, sim: sim}, nil
}

// Execute implements core.PreparedWorkload.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, lw := pw.b, pw.lw
	pw.sim.Reset(p)
	st := pw.sim.Run()
	if st.FluidCells == 0 {
		return core.Result{}, fmt.Errorf("lbm: %s: geometry has no fluid cells", lw.Name)
	}
	if math.IsNaN(st.TotalMass) || math.IsInf(st.TotalMass, 0) {
		return core.Result{}, fmt.Errorf("lbm: %s: simulation diverged", lw.Name)
	}
	sum := core.NewChecksum().
		AddFloat(st.TotalMass).
		AddFloat(st.MeanUx).
		AddFloat(st.KineticE).
		AddUint64(uint64(st.FluidCells))
	return core.Result{
		Benchmark: b.Name(),
		Workload:  lw.Name,
		Kind:      lw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
