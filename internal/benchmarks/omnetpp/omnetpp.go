package omnetpp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perf"
)

// Workload is one 520.omnetpp_r input: a NED-lite description plus a
// configuration.
type Workload struct {
	core.Meta
	NED    string
	Config Config
}

// Benchmark is the 520.omnetpp_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "520.omnetpp_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Discrete event simulation" }

// Workloads returns SPEC-style inputs (same topology, different simulated
// time — exactly the paper's observation about the distributed inputs) plus
// the seven Alberta topology workloads.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	specNet, err := RandomTopology(16, 24, 99)
	if err != nil {
		return nil, err
	}
	mk := func(name string, kind core.Kind, net *Network, dur int64, mean float64, seed int64) core.Workload {
		return Workload{
			Meta:   core.Meta{Name: name, Kind: kind},
			NED:    net.FormatNED(),
			Config: Config{DurationUS: dur, MeanInterarrivalUS: mean, Seed: seed},
		}
	}
	rand9, err := RandomTopology(8, 9, 301)
	if err != nil {
		return nil, err
	}
	rand18, err := RandomTopology(12, 18, 302)
	if err != nil {
		return nil, err
	}
	rand27, err := RandomTopology(14, 27, 303)
	if err != nil {
		return nil, err
	}
	return []core.Workload{
		mk("test", core.KindTest, specNet, 2_000, 50, 1),
		mk("train", core.KindTrain, specNet, 40_000, 50, 2),
		mk("refrate", core.KindRefrate, specNet, 200_000, 50, 3),
		mk("alberta.line", core.KindAlberta, LineTopology(12, 3), 120_000, 60, 11),
		mk("alberta.ring", core.KindAlberta, RingTopology(12, 3), 120_000, 60, 12),
		mk("alberta.star", core.KindAlberta, StarTopology(12, 3), 120_000, 60, 13),
		mk("alberta.tree", core.KindAlberta, TreeTopology(15, 3), 120_000, 60, 14),
		mk("alberta.rand9", core.KindAlberta, rand9, 120_000, 60, 15),
		mk("alberta.rand18", core.KindAlberta, rand18, 120_000, 60, 16),
		mk("alberta.rand27", core.KindAlberta, rand27, 120_000, 60, 17),
	}, nil
}

// GenerateWorkload implements core.Generator: random topologies of varying
// size and edge density.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	nodes := 8 + (i%4)*4
	edges := nodes - 1 + (i%3)*nodes/2
	net, err := RandomTopology(nodes, edges, seed+int64(i))
	if err != nil {
		return nil, err
	}
	return Workload{
		Meta:   core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		NED:    net.FormatNED(),
		Config: Config{DurationUS: 100_000, MeanInterarrivalUS: 60, Seed: seed + int64(i)},
	}, nil
}

// prepared holds the parsed network and the simulator whose routing tables
// (the expensive per-destination BFS construction) are built once; the
// simulator's run state is the scratch, reset in place per Execute.
type prepared struct {
	b   *Benchmark
	ow  Workload
	sim *Simulator
}

// Prepare implements core.Benchmark: parse the NED file and build the
// routing tables once, uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	ow, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	net, err := ParseNED(ow.NED)
	if err != nil {
		return nil, fmt.Errorf("omnetpp: %s: %w", ow.Name, err)
	}
	sim, err := NewSimulator(net, ow.Config, nil)
	if err != nil {
		return nil, err
	}
	return &prepared{b: b, ow: ow, sim: sim}, nil
}

// Execute implements core.PreparedWorkload.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, ow := pw.b, pw.ow
	pw.sim.Reset(p)
	st := pw.sim.Run()
	if st.EventsProcessed == 0 {
		return core.Result{}, fmt.Errorf("omnetpp: %s: simulation processed no events", ow.Name)
	}
	sum := core.NewChecksum().
		AddUint64(st.EventsProcessed).
		AddUint64(st.Delivered).
		AddUint64(st.Dropped).
		AddUint64(uint64(st.TotalLatencyUS)).
		AddUint64(st.TotalHops)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  ow.Name,
		Kind:      ow.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
