package nab

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestGenerateAndParsePDB(t *testing.T) {
	src := GeneratePDB("1tst", 40, 7)
	if !strings.HasPrefix(src, "HEADER") || !strings.Contains(src, "ATOM") {
		t.Fatalf("unexpected PDB text:\n%s", src[:100])
	}
	mol, err := ParsePDB(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(mol.Atoms) != 40 {
		t.Errorf("atoms = %d, want 40", len(mol.Atoms))
	}
	if len(mol.Bonds) != 39 {
		t.Errorf("bonds = %d, want 39", len(mol.Bonds))
	}
}

func TestParsePDBErrors(t *testing.T) {
	if _, err := ParsePDB("HEADER only\nEND\n"); !errors.Is(err, ErrBadPDB) {
		t.Errorf("no atoms: err = %v", err)
	}
	if _, err := ParsePDB("ATOM 1 C\n"); !errors.Is(err, ErrBadPDB) {
		t.Errorf("short record: err = %v", err)
	}
	if _, err := ParsePDB("ATOM  1  C ALA A 1  x y z\n"); !errors.Is(err, ErrBadPDB) {
		t.Errorf("bad coords: err = %v", err)
	}
}

func TestSimValidation(t *testing.T) {
	mol, _ := ParsePDB(GeneratePDB("t", 10, 1))
	for _, prm := range []Params{
		{Steps: 0, Dt: 0.01, CutoffDist: 5},
		{Steps: 5, Dt: 0, CutoffDist: 5},
		{Steps: 5, Dt: 0.5, CutoffDist: 5},
		{Steps: 5, Dt: 0.01, CutoffDist: 0},
	} {
		if _, err := NewSim(mol, prm, nil); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %+v: err = %v, want ErrBadParams", prm, err)
		}
	}
}

func TestBondSpringRestoringForce(t *testing.T) {
	// Two atoms stretched beyond equilibrium must attract.
	mol := &Molecule{
		Atoms: []Atom{{X: 0, Y: 0, Z: 0}, {X: 5, Y: 0, Z: 0}},
		Bonds: [][2]int{{0, 1}},
	}
	prm := DefaultParams()
	prm.LJEpsilon = 0 // isolate the spring
	prm.CoulombK = 0
	s, err := NewSim(mol, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.computeForces()
	if s.fx[0] <= 0 || s.fx[1] >= 0 {
		t.Errorf("stretched bond forces = %v, %v; want attraction", s.fx[0], s.fx[1])
	}
	// Compressed bond must repel.
	mol.Atoms[1].X = 0.5
	s.computeForces()
	if s.fx[0] >= 0 || s.fx[1] <= 0 {
		t.Errorf("compressed bond forces = %v, %v; want repulsion", s.fx[0], s.fx[1])
	}
}

func TestLJRepelsAtShortRange(t *testing.T) {
	// Non-bonded atoms much closer than sigma must repel strongly.
	mol := &Molecule{
		Atoms: []Atom{{X: 0}, {X: 100}, {X: 1.0}}, // 0 and 2 are non-bonded (skip i+1)
		Bonds: nil,
	}
	prm := DefaultParams()
	prm.CoulombK = 0
	s, err := NewSim(mol, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.computeForces()
	if s.fx[0] >= 0 || s.fx[2] <= 0 {
		t.Errorf("LJ at r<<sigma: forces %v, %v; want repulsion", s.fx[0], s.fx[2])
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	mol, _ := ParsePDB(GeneratePDB("t", 30, 3))
	s, err := NewSim(mol, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.computeForces()
	var sx, sy, sz float64
	for i := range s.fx {
		sx += s.fx[i]
		sy += s.fy[i]
		sz += s.fz[i]
	}
	if math.Abs(sx)+math.Abs(sy)+math.Abs(sz) > 1e-8 {
		t.Errorf("net force = (%v, %v, %v), want ~0", sx, sy, sz)
	}
}

func TestSimulationRunsAndMoves(t *testing.T) {
	mol, _ := ParsePDB(GeneratePDB("t", 50, 4))
	prm := DefaultParams()
	prm.Steps = 20
	s, err := NewSim(mol, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSD <= 0 {
		t.Error("structure should relax away from its start")
	}
	if res.KineticE <= 0 {
		t.Error("forces should produce motion")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		mol, _ := ParsePDB(GeneratePDB("t", 40, 5))
		prm := DefaultParams()
		prm.Steps = 10
		s, err := NewSim(mol, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
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
		t.Errorf("alberta workloads = %d, want 7 (paper: seven distinct proteins)", alberta)
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
	for _, m := range []string{"bond_forces", "nonbond_forces", "integrate"} {
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
	ws, err := core.GenerateWorkloads(b, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
