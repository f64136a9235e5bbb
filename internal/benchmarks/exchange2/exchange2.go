package exchange2

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// Workload is one 548.exchange2_r input: which seed puzzles to process and
// how many new puzzles to generate per seed. The Alberta script's knob is
// exactly "the number of puzzles to process per workload", drawing from the
// distributed seed file.
type Workload struct {
	core.Meta
	// SeedIndices selects puzzles from the default seed collection.
	SeedIndices []int
	// PerSeed is the number of new puzzles generated per seed.
	PerSeed int
	// RNGSeed drives the transformations.
	RNGSeed int64
}

// Benchmark is the 548.exchange2_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "548.exchange2_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "AI: Sudoku recursive solution" }

// seeds is the process-wide seed collection (deterministic).
var seeds = DefaultSeeds()

// pickSeeds selects n seed indices deterministically.
func pickSeeds(rngSeed int64, n int) []int {
	rng := rand.New(rand.NewSource(rngSeed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(len(seeds))
	}
	return out
}

// Workloads returns SPEC-style inputs plus the ten Alberta workloads, all
// drawing from the same 27 distributed seeds (matching the paper's
// decision) and varying only the puzzle counts.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, rngSeed int64, nSeeds, perSeed int) core.Workload {
		return Workload{
			Meta:        core.Meta{Name: name, Kind: kind},
			SeedIndices: pickSeeds(rngSeed, nSeeds),
			PerSeed:     perSeed,
			RNGSeed:     rngSeed,
		}
	}
	ws := []core.Workload{
		mk("test", core.KindTest, 1, 2, 3),
		mk("train", core.KindTrain, 2, 9, 10),
		mk("refrate", core.KindRefrate, 3, 27, 20),
	}
	for i := 0; i < 10; i++ {
		ws = append(ws, mk(fmt.Sprintf("alberta.%d", i+1), core.KindAlberta,
			100+int64(i), 6+2*i, 8+3*(i%4)))
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	return Workload{
		Meta:        core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		SeedIndices: pickSeeds(seed+int64(i), 4+i%8),
		PerSeed:     6 + i%10,
		RNGSeed:     seed + int64(i),
	}, nil
}

// prepared wraps the workload after validating its seed indices: puzzle
// generation and solving are both measured, and the embedded seed boards are
// package-level constants, so there is nothing else to prepare.
type prepared struct {
	b  *Benchmark
	xw Workload
}

// Prepare implements core.Benchmark.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	xw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	for _, si := range xw.SeedIndices {
		if si < 0 || si >= len(seeds) {
			return nil, fmt.Errorf("exchange2: %s: seed index %d out of range", xw.Name, si)
		}
	}
	return &prepared{b: b, xw: xw}, nil
}

// Execute implements core.PreparedWorkload: generate and solve the puzzles.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, xw := pw.b, pw.xw
	solver := NewSolver(p)
	rng := rand.New(rand.NewSource(xw.RNGSeed))
	sum := core.NewChecksum()
	for _, si := range xw.SeedIndices {
		if si < 0 || si >= len(seeds) {
			return core.Result{}, fmt.Errorf("exchange2: %s: seed index %d out of range", xw.Name, si)
		}
		puzzles, err := GenerateFromSeed(seeds[si], xw.PerSeed, rng, solver)
		if err != nil {
			return core.Result{}, fmt.Errorf("exchange2: %s: %w", xw.Name, err)
		}
		for _, pz := range puzzles {
			sum = sum.AddString(pz.String())
		}
	}
	sum = sum.AddUint64(solver.Nodes).AddUint64(solver.Backtracks)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  xw.Name,
		Kind:      xw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
