package omnetpp

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestEventHeapOrdering(t *testing.T) {
	h := &eventHeap{}
	times := []int64{50, 10, 30, 10, 90, 20}
	for i, tm := range times {
		h.push(event{time: tm, seq: int64(i)})
	}
	var got []int64
	for len(h.items) > 0 {
		got = append(got, h.pop().time)
	}
	want := append([]int64(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestEventHeapStableTieBreak(t *testing.T) {
	h := &eventHeap{}
	for i := 0; i < 10; i++ {
		h.push(event{time: 5, seq: int64(i)})
	}
	for i := 0; i < 10; i++ {
		if e := h.pop(); e.seq != int64(i) {
			t.Fatalf("tie-break broke FIFO: got seq %d at pos %d", e.seq, i)
		}
	}
}

func TestNEDRoundTrip(t *testing.T) {
	net := RingTopology(6, 4)
	parsed, err := ParseNED(net.FormatNED())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != net.Name || parsed.Nodes != net.Nodes || len(parsed.Links) != len(net.Links) {
		t.Errorf("round trip mismatch: %+v vs %+v", parsed, net)
	}
}

func TestParseNEDErrors(t *testing.T) {
	bad := []string{
		"nodes 0",
		"network x\nnodes 3\nlink 0 5 1",  // out of range
		"network x\nnodes 3\nlink 0 0 1",  // self loop
		"network x\nnodes 3\nfrobnicate",  // unknown directive
		"network x\nnodes 3\nlink 0 1 -2", // negative delay
	}
	for _, src := range bad {
		if _, err := ParseNED(src); !errors.Is(err, ErrBadNED) {
			t.Errorf("ParseNED(%q) err = %v, want ErrBadNED", src, err)
		}
	}
}

func TestParseNEDComments(t *testing.T) {
	src := "# a comment\nnetwork n\n\nnodes 2\nlink 0 1 3\n"
	net, err := ParseNED(src)
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes != 2 || len(net.Links) != 1 {
		t.Errorf("parsed %+v", net)
	}
}

func TestTopologyGenerators(t *testing.T) {
	cases := []struct {
		net       *Network
		wantLinks int
	}{
		{LineTopology(10, 1), 9},
		{RingTopology(10, 1), 10},
		{StarTopology(10, 1), 9},
		{TreeTopology(15, 1), 14},
	}
	for _, c := range cases {
		if err := c.net.Validate(); err != nil {
			t.Errorf("%s: %v", c.net.Name, err)
		}
		if len(c.net.Links) != c.wantLinks {
			t.Errorf("%s: %d links, want %d", c.net.Name, len(c.net.Links), c.wantLinks)
		}
	}
}

func TestRandomTopologyConnectedAndSized(t *testing.T) {
	for _, edges := range []int{9, 18, 27} {
		nodes := edges/2 + 3
		net, err := RandomTopology(nodes, edges, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(net.Links) != edges {
			t.Errorf("edges = %d, want %d", len(net.Links), edges)
		}
		// Connectivity check by union-find.
		parent := make([]int, net.Nodes)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, l := range net.Links {
			parent[find(l.A)] = find(l.B)
		}
		root := find(0)
		for i := 1; i < net.Nodes; i++ {
			if find(i) != root {
				t.Errorf("node %d disconnected in %s", i, net.Name)
			}
		}
	}
}

func TestRandomTopologyRejectsImpossible(t *testing.T) {
	if _, err := RandomTopology(10, 5, 1); err == nil {
		t.Error("too few edges should fail")
	}
	if _, err := RandomTopology(4, 100, 1); err == nil {
		t.Error("too many edges should fail")
	}
}

func TestSimulationDeliversTraffic(t *testing.T) {
	net := RingTopology(8, 2)
	sim, err := NewSimulator(net, Config{DurationUS: 20000, MeanInterarrivalUS: 50, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.Delivered == 0 {
		t.Error("no messages delivered")
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d messages on a connected ring", st.Dropped)
	}
	if st.TotalLatencyUS <= 0 {
		t.Error("latency not accumulated")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() Stats {
		net := TreeTopology(15, 2)
		sim, err := NewSimulator(net, Config{DurationUS: 15000, MeanInterarrivalUS: 40, Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

func TestLongerSimulationProcessesMoreEvents(t *testing.T) {
	run := func(dur int64) uint64 {
		net := RingTopology(8, 2)
		sim, err := NewSimulator(net, Config{DurationUS: dur, MeanInterarrivalUS: 50, Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run().EventsProcessed
	}
	if short, long := run(5000), run(50000); long <= short {
		t.Errorf("longer horizon events %d should exceed %d", long, short)
	}
}

func TestTopologyAffectsHopCounts(t *testing.T) {
	avgHops := func(net *Network) float64 {
		sim, err := NewSimulator(net, Config{DurationUS: 30000, MeanInterarrivalUS: 50, Seed: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Run()
		if st.Delivered == 0 {
			t.Fatal("no deliveries")
		}
		return float64(st.TotalHops) / float64(st.Delivered)
	}
	line := avgHops(LineTopology(12, 2))
	star := avgHops(StarTopology(12, 2))
	// A line's average path is much longer than a star's (≤ 2 hops).
	if line <= star {
		t.Errorf("line avg hops %v should exceed star %v", line, star)
	}
	if star > 2.01 {
		t.Errorf("star avg hops = %v, want ≤ 2", star)
	}
}

func TestNewSimulatorRejectsBadConfig(t *testing.T) {
	net := RingTopology(4, 1)
	if _, err := NewSimulator(net, Config{DurationUS: 0, MeanInterarrivalUS: 10}, nil); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := NewSimulator(net, Config{DurationUS: 10, MeanInterarrivalUS: 0}, nil); err == nil {
		t.Error("zero interarrival should fail")
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	alberta := 0
	for _, w := range ws {
		names[w.WorkloadName()] = true
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
		}
	}
	if alberta != 7 {
		t.Errorf("alberta workloads = %d, want 7 (paper ships seven)", alberta)
	}
	for _, want := range []string{"alberta.line", "alberta.ring", "alberta.star", "alberta.tree", "alberta.rand9", "alberta.rand18", "alberta.rand27"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestTrainAndRefShareTopology(t *testing.T) {
	// Fidelity check: SPEC's inputs differ only in simulated time.
	b := New()
	train, err := core.FindWorkload(b, "train")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.FindWorkload(b, "refrate")
	if err != nil {
		t.Fatal(err)
	}
	tw, rw := train.(Workload), ref.(Workload)
	if tw.NED != rw.NED {
		t.Error("train and refrate should share the topology")
	}
	if tw.Config.DurationUS >= rw.Config.DurationUS {
		t.Error("refrate should simulate longer than train")
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
	for _, m := range []string{"schedule", "process_event", "route_packet"} {
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

func TestGenerateWorkloads(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("generated %d", len(ws))
	}
	for _, w := range ws {
		if _, err := ParseNED(w.(Workload).NED); err != nil {
			t.Errorf("generated NED invalid: %v", err)
		}
	}
}
