package mcf

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perf"
)

// Workload is one 505.mcf_r input: the parameters of a single-depot vehicle
// scheduling problem.
type Workload struct {
	core.Meta
	Params CityParams
}

// Benchmark is the 505.mcf_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "505.mcf_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Route planning" }

// Workloads returns SPEC-style train/refrate workloads plus the three
// automatically generated Alberta workloads described in the paper.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, p CityParams) core.Workload {
		return Workload{Meta: core.Meta{Name: name, Kind: kind}, Params: p}
	}
	small := DefaultCityParams()
	small.Trips = 60
	small.Stops = 16
	small.Seed = 100

	train := DefaultCityParams()
	train.Trips = 140
	train.Seed = 101

	ref := DefaultCityParams()
	ref.Trips = 260
	ref.Seed = 102

	// The three Alberta workloads: different density/connectivity levels.
	alb1 := DefaultCityParams()
	alb1.Trips = 200
	alb1.Connectivity = 45 // sparse deadhead graph
	alb1.PeakSharpness = 0.2
	alb1.Seed = 201

	alb2 := DefaultCityParams()
	alb2.Trips = 240
	alb2.Stops = 80
	alb2.Connectivity = 150 // dense deadhead graph
	alb2.PeakSharpness = 3.0
	alb2.Seed = 202

	alb3 := DefaultCityParams()
	alb3.Trips = 300
	alb3.Stops = 24
	alb3.GridSize = 32 // compact city, short deadheads
	alb3.VehicleCost = 2000
	alb3.Seed = 203

	return []core.Workload{
		mk("test", core.KindTest, small),
		mk("train", core.KindTrain, train),
		mk("refrate", core.KindRefrate, ref),
		mk("alberta.sparse", core.KindAlberta, alb1),
		mk("alberta.dense", core.KindAlberta, alb2),
		mk("alberta.compact", core.KindAlberta, alb3),
	}, nil
}

// GenerateWorkload implements core.Generator: fresh vehicle-scheduling
// problems from a seed, echoing the paper's "researchers can generate as
// many workloads as they wish".
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	p := DefaultCityParams()
	p.Seed = seed + int64(i)*7919
	p.Trips = 150 + int(p.Seed%5)*40
	p.Connectivity = 40 + int(p.Seed%4)*40
	p.PeakSharpness = 0.5 + float64(p.Seed%3)
	return Workload{
		Meta:   core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Params: p,
	}, nil
}

// prepared holds the generated city and flow instance, both immutable after
// Prepare. The solver builds its basis from the instance on every Execute
// (SolveSimplex never mutates the instance), so no scratch reset is needed.
type prepared struct {
	b    *Benchmark
	mw   Workload
	city *City
	in   *Instance
}

// Prepare implements core.Benchmark: generate the city and build the flow
// instance once, uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	mw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	city, err := GenerateCity(mw.Params)
	if err != nil {
		return nil, err
	}
	return &prepared{b: b, mw: mw, city: city, in: BuildInstance(city, mw.Params)}, nil
}

// Execute implements core.PreparedWorkload: solve the prepared instance
// with the network simplex.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, mw, city, in := pw.b, pw.mw, pw.city, pw.in
	sol, err := SolveSimplex(in, p)
	if err != nil {
		return core.Result{}, fmt.Errorf("mcf: workload %s: %w", mw.Name, err)
	}
	served := TripsServed(in, sol, len(city.Trips))
	if served != int64(len(city.Trips)) {
		return core.Result{}, fmt.Errorf("mcf: workload %s served %d of %d trips", mw.Name, served, len(city.Trips))
	}
	sum := core.NewChecksum().
		AddUint64(uint64(sol.Cost)).
		AddUint64(uint64(FleetSize(in, sol, len(city.Trips)))).
		AddUint64(uint64(sol.Iterations))
	for _, f := range sol.Flow {
		sum = sum.AddUint64(uint64(f))
	}
	return core.Result{
		Benchmark: b.Name(),
		Workload:  mw.Name,
		Kind:      mw.Kind,
		Checksum:  sum.Value(),
	}, nil
}
