package mcf

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// tinyInstance is a hand-checkable 4-node problem.
//
//	0 --(cap2,c1)--> 1 --(cap2,c1)--> 3
//	0 --(cap2,c3)--> 2 --(cap2,c1)--> 3
//
// supply 0:+3, 3:-3 → optimal: 2 units via 1 (cost 4), 1 unit via 2
// (cost 4) = 8.
func tinyInstance() *Instance {
	return &Instance{
		NumNodes: 4,
		Supply:   []int64{3, 0, 0, -3},
		Arcs: []Arc{
			{From: 0, To: 1, Cap: 2, Cost: 1},
			{From: 1, To: 3, Cap: 2, Cost: 1},
			{From: 0, To: 2, Cap: 2, Cost: 3},
			{From: 2, To: 3, Cap: 2, Cost: 1},
		},
	}
}

func TestValidate(t *testing.T) {
	in := tinyInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyInstance()
	bad.Supply[0] = 5
	if err := bad.Validate(); err == nil {
		t.Error("unbalanced supplies should fail validation")
	}
	loop := tinyInstance()
	loop.Arcs[0].To = 0
	if err := loop.Validate(); err == nil {
		t.Error("self loops should fail validation")
	}
}

func TestSimplexTiny(t *testing.T) {
	sol, err := SolveSimplex(tinyInstance(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 8 {
		t.Errorf("cost = %d, want 8", sol.Cost)
	}
	if _, err := tinyInstance().CheckFlow(sol.Flow); err != nil {
		t.Errorf("flow infeasible: %v", err)
	}
}

func TestSSPTiny(t *testing.T) {
	sol, err := SolveSSP(tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 8 {
		t.Errorf("cost = %d, want 8", sol.Cost)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	in := &Instance{
		NumNodes: 2,
		Supply:   []int64{5, -5},
		Arcs:     []Arc{{From: 0, To: 1, Cap: 3, Cost: 1}},
	}
	if _, err := SolveSimplex(in, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	if _, err := SolveSSP(in); !errors.Is(err, ErrInfeasible) {
		t.Errorf("ssp err = %v, want ErrInfeasible", err)
	}
}

func TestSimplexNegativeCosts(t *testing.T) {
	// A negative-cost arc in a DAG: flow should prefer it.
	in := &Instance{
		NumNodes: 3,
		Supply:   []int64{2, 0, -2},
		Arcs: []Arc{
			{From: 0, To: 1, Cap: 2, Cost: 1},
			{From: 1, To: 2, Cap: 2, Cost: -5},
			{From: 0, To: 2, Cap: 2, Cost: 0},
		},
	}
	sol, err := SolveSimplex(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != -8 {
		t.Errorf("cost = %d, want -8 (route through the rewarded arc)", sol.Cost)
	}
}

// randomInstance builds a random feasible circulation-style instance by
// routing supply from node 0 to node n-1 over a DAG (guaranteeing a path
// with enough capacity).
func randomInstance(rng *rand.Rand, n int) *Instance {
	in := &Instance{NumNodes: n, Supply: make([]int64, n)}
	amount := int64(1 + rng.Intn(8))
	in.Supply[0] = amount
	in.Supply[n-1] = -amount
	// Backbone path with full capacity keeps it feasible.
	for v := 0; v+1 < n; v++ {
		in.Arcs = append(in.Arcs, Arc{From: v, To: v + 1, Cap: amount, Cost: int64(rng.Intn(20))})
	}
	// Random forward extra arcs.
	extra := rng.Intn(3 * n)
	for i := 0; i < extra; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		in.Arcs = append(in.Arcs, Arc{
			From: u, To: v,
			Cap:  int64(rng.Intn(6)),
			Cost: int64(rng.Intn(30)),
		})
	}
	return in
}

func TestSimplexMatchesSSPOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, 4+rng.Intn(12))
		a, err := SolveSimplex(in, nil)
		if err != nil {
			t.Fatalf("trial %d: simplex: %v", trial, err)
		}
		b, err := SolveSSP(in)
		if err != nil {
			t.Fatalf("trial %d: ssp: %v", trial, err)
		}
		if a.Cost != b.Cost {
			t.Fatalf("trial %d: simplex cost %d != ssp cost %d", trial, a.Cost, b.Cost)
		}
		if cost, err := in.CheckFlow(a.Flow); err != nil || cost != a.Cost {
			t.Fatalf("trial %d: simplex flow check: cost=%d err=%v", trial, cost, err)
		}
	}
}

func TestGenerateCityDeterminism(t *testing.T) {
	p := DefaultCityParams()
	a, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trips) != len(b.Trips) {
		t.Fatal("trip counts differ")
	}
	for i := range a.Trips {
		if a.Trips[i] != b.Trips[i] {
			t.Fatalf("trip %d differs: %+v vs %+v", i, a.Trips[i], b.Trips[i])
		}
	}
}

func TestGenerateCityConsistency(t *testing.T) {
	p := DefaultCityParams()
	c, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range c.Trips {
		if tr.Arrive <= tr.Depart {
			t.Errorf("trip %d arrives (%d) before departing (%d)", i, tr.Arrive, tr.Depart)
		}
		if tr.FromStop == tr.ToStop {
			t.Errorf("trip %d is a null trip", i)
		}
		want := tr.Depart + c.travelMinutes(tr.FromStop, tr.ToStop)
		if tr.Arrive != want {
			t.Errorf("trip %d arrival %d inconsistent with travel time (want %d)", i, tr.Arrive, want)
		}
	}
}

func TestCircadianCycleShapesTimetable(t *testing.T) {
	p := DefaultCityParams()
	p.Trips = 3000
	p.PeakSharpness = 3
	c, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	rush, night := 0, 0
	for _, tr := range c.Trips {
		if tr.Depart >= 7*60+30 && tr.Depart <= 8*60+30 {
			rush++
		}
		if tr.Depart >= 4*60 && tr.Depart <= 5*60 {
			night++
		}
	}
	if rush <= 3*night {
		t.Errorf("rush-hour trips (%d) should dwarf small-hours trips (%d)", rush, night)
	}
}

func TestBuildInstanceIsValidAndAcyclicRewardSafe(t *testing.T) {
	p := DefaultCityParams()
	p.Trips = 50
	c, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	in := BuildInstance(c, p)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every deadhead link must respect time consistency.
	nTrips := len(c.Trips)
	for _, a := range in.Arcs {
		if a.From >= nTrips && a.From < 2*nTrips && a.To < nTrips {
			i, j := a.From-nTrips, a.To
			dh := c.travelMinutes(c.Trips[i].ToStop, c.Trips[j].FromStop)
			if c.Trips[i].Arrive+dh > c.Trips[j].Depart {
				t.Fatalf("deadhead %d→%d violates timing", i, j)
			}
		}
	}
}

func TestVehicleSchedulingServesAllTrips(t *testing.T) {
	p := DefaultCityParams()
	p.Trips = 80
	p.Seed = 5
	c, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	in := BuildInstance(c, p)
	sol, err := SolveSimplex(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served := TripsServed(in, sol, len(c.Trips)); served != int64(len(c.Trips)) {
		t.Errorf("served %d of %d trips", served, len(c.Trips))
	}
	fleet := FleetSize(in, sol, len(c.Trips))
	if fleet <= 0 || fleet > int64(len(c.Trips)) {
		t.Errorf("fleet = %d, want within (0,%d]", fleet, len(c.Trips))
	}
	// Cross-validate optimality with SSP.
	ref, err := SolveSSP(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != ref.Cost {
		t.Errorf("simplex cost %d != ssp cost %d", sol.Cost, ref.Cost)
	}
}

func TestHigherVehicleCostShrinksOrKeepsFleet(t *testing.T) {
	base := DefaultCityParams()
	base.Trips = 80
	base.Seed = 9
	c, err := GenerateCity(base)
	if err != nil {
		t.Fatal(err)
	}
	cheap := base
	cheap.VehicleCost = 1
	expensive := base
	expensive.VehicleCost = 5000

	inCheap := BuildInstance(c, cheap)
	inExp := BuildInstance(c, expensive)
	solCheap, err := SolveSimplex(inCheap, nil)
	if err != nil {
		t.Fatal(err)
	}
	solExp, err := SolveSimplex(inExp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if FleetSize(inExp, solExp, len(c.Trips)) > FleetSize(inCheap, solCheap, len(c.Trips)) {
		t.Errorf("expensive vehicles should not enlarge the fleet: %d > %d",
			FleetSize(inExp, solExp, len(c.Trips)), FleetSize(inCheap, solCheap, len(c.Trips)))
	}
}

func TestBenchmarkInterface(t *testing.T) {
	b := New()
	if b.Name() != "505.mcf_r" {
		t.Errorf("name = %q", b.Name())
	}
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) < 5 {
		t.Fatalf("workloads = %d, want ≥5", len(ws))
	}
	alberta := 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
		}
	}
	if alberta != 3 {
		t.Errorf("alberta workloads = %d, want 3 (paper ships three)", alberta)
	}
}

func TestBenchmarkRunDeterministicChecksum(t *testing.T) {
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
	if r1.Checksum != r2.Checksum || r1.Checksum == 0 {
		t.Errorf("checksums: %x vs %x", r1.Checksum, r2.Checksum)
	}
}

func TestBenchmarkRunRejectsForeignWorkload(t *testing.T) {
	b := New()
	_, err := core.Run(b, core.Meta{Name: "x"}, perf.New())
	if !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v, want ErrUnknownWorkload", err)
	}
}

func TestGenerateWorkloads(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("generated %d, want 4", len(ws))
	}
	for _, w := range ws {
		if w.WorkloadKind() != core.KindAlberta {
			t.Errorf("generated workload kind = %v", w.WorkloadKind())
		}
	}
	// Deterministic in seed.
	ws2, err := core.GenerateWorkloads(b, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if ws[i].(Workload).Params != ws2[i].(Workload).Params {
			t.Errorf("workload %d params differ across identical seeds", i)
		}
	}
	if _, err := core.GenerateWorkloads(b, 1, 0); err == nil {
		t.Error("n=0 should be rejected")
	}
}

func TestProfiledRunProducesTopDown(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	if _, err := core.Run(b, w, p); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep.Cycles == 0 {
		t.Fatal("no modeled cycles recorded")
	}
	if rep.Coverage["primal_bea_mpp"] == 0 {
		t.Error("pricing method should appear in coverage")
	}
	if s := rep.TopDown.Sum(); s < 0.999 || s > 1.001 {
		t.Errorf("topdown sum = %v", s)
	}
}
