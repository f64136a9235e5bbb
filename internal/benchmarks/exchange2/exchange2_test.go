package exchange2

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// A classic easy puzzle and its unique solution.
const (
	knownPuzzle   = "53..7....6..195....98....6.8...6...34..8.3..17...2...6.6....28....419..5....8..79"
	knownSolution = "534678912672195348198342567859761423426853791713924856961537284287419635345286179"
)

func TestParsePuzzle(t *testing.T) {
	g, err := ParsePuzzle(knownPuzzle)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 5 || g[2] != 0 || g[80] != 9 {
		t.Errorf("parsed cells wrong: %v %v %v", g[0], g[2], g[80])
	}
	if _, err := ParsePuzzle("short"); !errors.Is(err, ErrBadPuzzle) {
		t.Error("short input should fail")
	}
	if _, err := ParsePuzzle(knownPuzzle[:80] + "x"); !errors.Is(err, ErrBadPuzzle) {
		t.Error("bad char should fail")
	}
}

func TestStringRoundTrip(t *testing.T) {
	g, err := ParsePuzzle(knownPuzzle)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParsePuzzle(g.String())
	if err != nil {
		t.Fatal(err)
	}
	if g != g2 {
		t.Error("round trip mismatch")
	}
}

func TestSolveKnownPuzzle(t *testing.T) {
	g, err := ParsePuzzle(knownPuzzle)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(nil)
	if !s.Solve(&g) {
		t.Fatal("known-solvable puzzle reported unsolvable")
	}
	if g.String() != knownSolution {
		t.Errorf("solution = %s, want %s", g.String(), knownSolution)
	}
}

func TestSolveDetectsUnsolvable(t *testing.T) {
	// Two 5s in the first row make it invalid.
	bad := "55" + knownPuzzle[2:]
	g, err := ParsePuzzle(bad)
	if err != nil {
		t.Fatal(err)
	}
	if NewSolver(nil).Solve(&g) {
		t.Error("contradictory puzzle reported solvable")
	}
}

func TestSolvedGridComplete(t *testing.T) {
	g, _ := ParsePuzzle(knownPuzzle)
	s := NewSolver(nil)
	s.Solve(&g)
	if !g.Valid() {
		t.Error("solution violates constraints")
	}
	for i, v := range g {
		if v == 0 {
			t.Fatalf("cell %d left empty", i)
		}
	}
}

func TestTransformPreservesValidity(t *testing.T) {
	g, _ := ParsePuzzle(knownPuzzle)
	s := NewSolver(nil)
	s.Solve(&g)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		tg := transform(g, rng)
		if !tg.Valid() {
			t.Fatalf("transform %d produced invalid grid", i)
		}
		for _, v := range tg {
			if v == 0 {
				t.Fatal("transform left a hole")
			}
		}
	}
}

func TestGenerateFromSeedPreservesCluePattern(t *testing.T) {
	seed, _ := ParsePuzzle(knownPuzzle)
	rng := rand.New(rand.NewSource(2))
	s := NewSolver(nil)
	puzzles, err := GenerateFromSeed(seed, 5, rng, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(puzzles) != 5 {
		t.Fatalf("generated %d puzzles", len(puzzles))
	}
	for pi, pz := range puzzles {
		for i := range pz {
			if (seed[i] == 0) != (pz[i] == 0) {
				t.Fatalf("puzzle %d: clue pattern differs at cell %d", pi, i)
			}
		}
		check := pz
		if !NewSolver(nil).Solve(&check) {
			t.Fatalf("puzzle %d unsolvable", pi)
		}
	}
}

func TestDefaultSeeds(t *testing.T) {
	if len(seeds) != 27 {
		t.Fatalf("seed collection = %d, want 27 (as distributed with the benchmark)", len(seeds))
	}
	s := NewSolver(nil)
	for i, seed := range seeds {
		if !seed.Valid() {
			t.Errorf("seed %d invalid", i)
		}
		g := seed
		if !s.Solve(&g) {
			t.Errorf("seed %d unsolvable", i)
		}
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
	if alberta != 10 {
		t.Errorf("alberta workloads = %d, want 10 (paper ships ten)", alberta)
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
	if rep.Coverage["solve_recurse"] == 0 {
		t.Errorf("solver missing from coverage: %v", rep.Coverage)
	}
	// exchange2 is the least workload-sensitive benchmark in the paper:
	// retiring should dominate strongly (Table II: r = 58.6).
	if rep.TopDown.Retiring < 0.3 {
		t.Errorf("retiring = %v, expected compute-bound profile", rep.TopDown.Retiring)
	}
}

func TestBenchmarkDeterminism(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.Run(b, w, perf.New())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Run(b, w, perf.New())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Checksum != r2.Checksum {
		t.Error("nondeterministic run")
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloads(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("generated %d", len(ws))
	}
	if _, err := core.GenerateWorkloads(b, 4, 0); err == nil {
		t.Error("n=0 should fail")
	}
}
