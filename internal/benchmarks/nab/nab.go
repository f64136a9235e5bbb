// Package nab reproduces 544.nab_r (Nucleic Acid Builder): molecular-level
// force simulation. An input pairs a protein-data-bank (pdb) structure file
// with a parameter (prm) file. The Brookhaven PDB downloads of the paper's
// seven proteins are replaced by a deterministic generator that emits
// helix-like backbone chains in PDB ATOM-record format; the force field
// (bond springs, Lennard-Jones, Coulomb) and velocity-Verlet integrator are
// real.
package nab

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/perf"
)

// Atom is one particle.
type Atom struct {
	Name    string
	X, Y, Z float64
	Charge  float64
}

// Molecule is the parsed structure with its bond list.
type Molecule struct {
	Atoms []Atom
	// Bonds are index pairs (chain bonds: consecutive backbone atoms).
	Bonds [][2]int
}

// ErrBadPDB reports an unparseable structure file.
var ErrBadPDB = errors.New("nab: bad PDB")

// GeneratePDB emits a helix-like chain of n atoms in ATOM-record format —
// the stand-in for a Brookhaven download.
func GeneratePDB(name string, n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	fmt.Fprintf(&sb, "HEADER    synthetic protein %s\n", name)
	elements := []string{"C", "N", "O", "S"}
	for i := 0; i < n; i++ {
		t := float64(i) * 0.6
		x := 2.3*math.Cos(t) + 0.2*rng.Float64()
		y := 2.3*math.Sin(t) + 0.2*rng.Float64()
		z := 0.9*float64(i) + 0.2*rng.Float64()
		el := elements[rng.Intn(len(elements))]
		fmt.Fprintf(&sb, "ATOM  %5d  %-3s ALA A%4d    %8.3f%8.3f%8.3f\n",
			i+1, el, i/4+1, x, y, z)
	}
	sb.WriteString("END\n")
	return sb.String()
}

// ParsePDB reads ATOM records (columns per the PDB fixed format, parsed
// leniently by fields) and derives chain bonds between consecutive atoms.
func ParsePDB(src string) (*Molecule, error) {
	m := &Molecule{}
	sc := bufio.NewScanner(strings.NewReader(src))
	charges := map[string]float64{"C": 0.1, "N": -0.3, "O": -0.5, "S": -0.1}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "ATOM") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 8 {
			return nil, fmt.Errorf("%w: short ATOM record %q", ErrBadPDB, line)
		}
		x, err1 := strconv.ParseFloat(f[len(f)-3], 64)
		y, err2 := strconv.ParseFloat(f[len(f)-2], 64)
		z, err3 := strconv.ParseFloat(f[len(f)-1], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: bad coordinates in %q", ErrBadPDB, line)
		}
		name := f[2]
		m.Atoms = append(m.Atoms, Atom{Name: name, X: x, Y: y, Z: z, Charge: charges[name]})
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("%w: no ATOM records", ErrBadPDB)
	}
	for i := 0; i+1 < len(m.Atoms); i++ {
		m.Bonds = append(m.Bonds, [2]int{i, i + 1})
	}
	return m, nil
}

// Params is the prm file contents.
type Params struct {
	Steps      int
	Dt         float64
	BondK      float64 // bond spring constant
	BondLen    float64 // equilibrium bond length
	LJEpsilon  float64
	LJSigma    float64
	CoulombK   float64
	CutoffDist float64 // nonbonded interaction cutoff
}

// DefaultParams returns a stable configuration.
func DefaultParams() Params {
	return Params{
		Steps: 30, Dt: 0.002,
		BondK: 100, BondLen: 1.8,
		LJEpsilon: 0.2, LJSigma: 2.2,
		CoulombK: 8, CutoffDist: 9,
	}
}

// ErrBadParams reports invalid parameters.
var ErrBadParams = errors.New("nab: bad parameters")

const atomBase = 0xE0_0000_0000

// Sim integrates molecular dynamics.
type Sim struct {
	mol        *Molecule
	prm        Params
	vx, vy, vz []float64
	fx, fy, fz []float64
	p          *perf.Profiler
}

// NewSim prepares the integrator.
func NewSim(mol *Molecule, prm Params, p *perf.Profiler) (*Sim, error) {
	if prm.Steps < 1 || prm.Dt <= 0 || prm.Dt > 0.1 || prm.CutoffDist <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, prm)
	}
	n := len(mol.Atoms)
	s := &Sim{
		mol: mol, prm: prm,
		vx: make([]float64, n), vy: make([]float64, n), vz: make([]float64, n),
		fx: make([]float64, n), fy: make([]float64, n), fz: make([]float64, n),
	}
	s.p = p
	if p != nil {
		p.SetFootprint("bond_forces", 3<<10)
		p.SetFootprint("nonbond_forces", 6<<10)
		p.SetFootprint("integrate", 2<<10)
	}
	return s, nil
}

// computeForces fills the force arrays and returns the potential energy.
func (s *Sim) computeForces() float64 {
	n := len(s.mol.Atoms)
	for i := 0; i < n; i++ {
		s.fx[i], s.fy[i], s.fz[i] = 0, 0, 0
	}
	energy := 0.0
	// Bond springs.
	if s.p != nil {
		s.p.Enter("bond_forces")
	}
	for _, b := range s.mol.Bonds {
		i, j := b[0], b[1]
		a, c := &s.mol.Atoms[i], &s.mol.Atoms[j]
		dx, dy, dz := c.X-a.X, c.Y-a.Y, c.Z-a.Z
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r < 1e-9 {
			continue
		}
		stretch := r - s.prm.BondLen
		f := s.prm.BondK * stretch / r
		s.fx[i] += f * dx
		s.fy[i] += f * dy
		s.fz[i] += f * dz
		s.fx[j] -= f * dx
		s.fy[j] -= f * dy
		s.fz[j] -= f * dz
		energy += 0.5 * s.prm.BondK * stretch * stretch
		if s.p != nil {
			s.p.Ops(20)
			s.p.LongOps(1)
			s.p.Load(atomBase + uint64(i)*64)
			s.p.Load(atomBase + uint64(j)*64)
		}
	}
	if s.p != nil {
		s.p.Leave()
		s.p.Enter("nonbond_forces")
	}
	// Nonbonded pairs: Lennard-Jones + Coulomb within the cutoff,
	// excluding directly bonded neighbors.
	cutoff2 := s.prm.CutoffDist * s.prm.CutoffDist
	for i := 0; i < n; i++ {
		ai := &s.mol.Atoms[i]
		for j := i + 2; j < n; j++ { // i+1 is chain-bonded
			aj := &s.mol.Atoms[j]
			dx, dy, dz := aj.X-ai.X, aj.Y-ai.Y, aj.Z-ai.Z
			r2 := dx*dx + dy*dy + dz*dz
			inCutoff := r2 < cutoff2 && r2 > 1e-9
			if s.p != nil && (i+j)%16 == 0 {
				s.p.Ops(10)
				s.p.Load(atomBase + uint64(j)*64)
				s.p.Branch(120, inCutoff)
			}
			if !inCutoff {
				continue
			}
			r := math.Sqrt(r2)
			sr := s.prm.LJSigma / r
			sr6 := sr * sr * sr * sr * sr * sr
			sr12 := sr6 * sr6
			// LJ force magnitude /r and energy.
			flj := 24 * s.prm.LJEpsilon * (2*sr12 - sr6) / r2
			energy += 4 * s.prm.LJEpsilon * (sr12 - sr6)
			// Coulomb.
			qq := s.prm.CoulombK * ai.Charge * aj.Charge
			fc := qq / (r2 * r)
			energy += qq / r
			f := flj + fc
			s.fx[i] -= f * dx
			s.fy[i] -= f * dy
			s.fz[i] -= f * dz
			s.fx[j] += f * dx
			s.fy[j] += f * dy
			s.fz[j] += f * dz
			if s.p != nil && (i+j)%16 == 0 {
				s.p.Ops(30)
				s.p.LongOps(2)
			}
		}
	}
	if s.p != nil {
		s.p.Leave()
	}
	return energy
}

// Result summarizes a simulation.
type Result struct {
	PotentialE float64
	KineticE   float64
	// RMSD is the root-mean-square displacement from the start structure.
	RMSD float64
}

// Run integrates with velocity Verlet and returns the summary.
func (s *Sim) Run() (Result, error) {
	n := len(s.mol.Atoms)
	startX := make([]float64, n)
	startY := make([]float64, n)
	startZ := make([]float64, n)
	for i, a := range s.mol.Atoms {
		startX[i], startY[i], startZ[i] = a.X, a.Y, a.Z
	}
	pot := s.computeForces()
	dt := s.prm.Dt
	for t := 0; t < s.prm.Steps; t++ {
		if s.p != nil {
			s.p.Enter("integrate")
		}
		for i := 0; i < n; i++ {
			// Half kick + drift.
			s.vx[i] += 0.5 * dt * s.fx[i]
			s.vy[i] += 0.5 * dt * s.fy[i]
			s.vz[i] += 0.5 * dt * s.fz[i]
			s.mol.Atoms[i].X += dt * s.vx[i]
			s.mol.Atoms[i].Y += dt * s.vy[i]
			s.mol.Atoms[i].Z += dt * s.vz[i]
			if s.p != nil && i%8 == 0 {
				s.p.Ops(18)
				s.p.Store(atomBase + uint64(i)*64)
			}
		}
		if s.p != nil {
			s.p.Leave()
		}
		pot = s.computeForces()
		if s.p != nil {
			s.p.Enter("integrate")
		}
		for i := 0; i < n; i++ {
			s.vx[i] += 0.5 * dt * s.fx[i]
			s.vy[i] += 0.5 * dt * s.fy[i]
			s.vz[i] += 0.5 * dt * s.fz[i]
		}
		if s.p != nil {
			s.p.Leave()
		}
	}
	var res Result
	res.PotentialE = pot
	for i := 0; i < n; i++ {
		res.KineticE += 0.5 * (s.vx[i]*s.vx[i] + s.vy[i]*s.vy[i] + s.vz[i]*s.vz[i])
		dx := s.mol.Atoms[i].X - startX[i]
		dy := s.mol.Atoms[i].Y - startY[i]
		dz := s.mol.Atoms[i].Z - startZ[i]
		res.RMSD += dx*dx + dy*dy + dz*dz
	}
	res.RMSD = math.Sqrt(res.RMSD / float64(n))
	if math.IsNaN(res.PotentialE) || math.IsInf(res.PotentialE, 0) ||
		math.IsNaN(res.KineticE) || math.IsInf(res.KineticE, 0) {
		return res, errors.New("nab: simulation diverged")
	}
	return res, nil
}

// Workload is one 544.nab_r input: the structure file plus parameters.
type Workload struct {
	core.Meta
	PDB    string
	Params Params
}

// Benchmark is the 544.nab_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "544.nab_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Molecular dynamics" }

// Workloads returns SPEC-style inputs plus the seven Alberta workloads
// modeling "forces in seven distinct proteins".
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, atoms int, seed int64, mod func(*Params)) core.Workload {
		p := DefaultParams()
		if mod != nil {
			mod(&p)
		}
		return Workload{
			Meta:   core.Meta{Name: name, Kind: kind},
			PDB:    GeneratePDB(name, atoms, seed),
			Params: p,
		}
	}
	ws := []core.Workload{
		mk("test", core.KindTest, 30, 1, func(p *Params) { p.Steps = 6 }),
		mk("train", core.KindTrain, 90, 2, nil),
		mk("refrate", core.KindRefrate, 220, 3, func(p *Params) { p.Steps = 50 }),
	}
	proteins := []struct {
		id    string
		atoms int
		mod   func(*Params)
	}{
		{"1aby", 70, nil},
		{"1bcd", 120, nil},
		{"2cef", 160, func(p *Params) { p.Steps = 40 }},
		{"3dgh", 200, nil},
		{"4eij", 110, func(p *Params) { p.CutoffDist = 14 }},
		{"5fkl", 140, func(p *Params) { p.CoulombK = 16 }},
		{"6gmn", 180, func(p *Params) { p.LJEpsilon = 0.5 }},
	}
	for i, pr := range proteins {
		ws = append(ws, mk("alberta."+pr.id, core.KindAlberta, pr.atoms, 100+int64(i), pr.mod))
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	p := DefaultParams()
	p.Steps = 20 + (i%4)*10
	return Workload{
		Meta:   core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		PDB:    GeneratePDB(fmt.Sprintf("gen%d", i), 60+(i%6)*30, seed+int64(i)),
		Params: p,
	}, nil
}

// prepared holds the parsed molecule. The simulation integrates atom
// positions in place, so Execute works on a scratch copy of the atoms (work)
// refreshed from the immutable parse (mol) each call; bonds are topology-only
// and shared read-only.
type prepared struct {
	b    *Benchmark
	nw   Workload
	mol  *Molecule
	work Molecule
}

// Prepare implements core.Benchmark: parse the PDB once, uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	nw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	mol, err := ParsePDB(nw.PDB)
	if err != nil {
		return nil, fmt.Errorf("nab: %s: %w", nw.Name, err)
	}
	pw := &prepared{b: b, nw: nw, mol: mol}
	pw.work.Bonds = mol.Bonds
	pw.work.Atoms = make([]Atom, len(mol.Atoms))
	return pw, nil
}

// Execute implements core.PreparedWorkload: refresh the scratch atoms from
// the parsed molecule, then simulate.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, nw := pw.b, pw.nw
	copy(pw.work.Atoms, pw.mol.Atoms)
	sim, err := NewSim(&pw.work, nw.Params, p)
	if err != nil {
		return core.Result{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return core.Result{}, fmt.Errorf("nab: %s: %w", nw.Name, err)
	}
	sum := core.NewChecksum().
		AddFloat(res.PotentialE).AddFloat(res.KineticE).AddFloat(res.RMSD).
		AddUint64(uint64(len(pw.mol.Atoms)))
	return core.Result{
		Benchmark: b.Name(),
		Workload:  nw.Name,
		Kind:      nw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
