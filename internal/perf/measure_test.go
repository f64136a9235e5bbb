package perf

import (
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/uarch"
)

// pinnedIntervalOps is the interval size of pinnedPlan.
const pinnedIntervalOps = 4096

// drivePinned emits a fixed stream of about 230K retired ops through every
// event API. Its batched calls retire up to 9000 ops at once, so single
// calls cross one or two interval boundaries of pinnedPlan, and methods
// nest so several records are touched in one interval.
func drivePinned(p *Profiler) {
	g := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		g ^= g << 13
		g ^= g >> 7
		g ^= g << 17
		return g
	}
	p.SetFootprint("outer", 4<<10)
	p.SetFootprint("inner", 48<<10)
	for round := uint64(0); round < 12; round++ {
		p.Enter("outer")
		for i := 0; i < 160; i++ {
			v := next()
			p.OpsBranch(5, v%31, v&(1<<40) != 0)
			p.Load(0x10000 + v%(160<<10))
			p.Store(0x900000 + v%(1<<20))
			p.LoadStore(0x1000000 + v%(2<<20))
		}
		p.Enter("inner")
		p.LoadRange(0x2000000+round<<16, 8, 3000)
		p.StoreRange(0x3000000+round<<17, 64, 1500)
		p.LoadStoreRange(0x4000000+(next()%64)<<20, 16, 1200)
		p.Ops(9000)
		p.LoadRange(0x10000+round<<12, 72, 800)
		p.LongOps(700)
		for j := uint64(0); j < 30; j++ {
			p.Branch(j%7, next()&1 == 0)
			p.Jump()
		}
		p.Leave()
		p.Leave()
	}
}

// pinnedPlan is a hand-written plan over drivePinned's intervals: dead runs,
// four dead→live restore points (intervals 4, 13, 30 and 54), a live run that
// carries state across weighted intervals, and weights 1 through 5. The
// final interval is live at weight 1, as phase.BuildPlan pins it.
func pinnedPlan() *SamplePlan {
	return &SamplePlan{IntervalOps: pinnedIntervalOps, Weights: []uint32{
		1, 2, 0, 0, 3, 5, 1, 0, 0, 0, // 0-9
		0, 0, 0, 4, 2, 2, 1, 3, 0, 0, // 10-19
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // 20-29
		5, 4, 3, 2, 1, 0, 0, 0, 0, 0, // 30-39
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // 40-49
		0, 0, 0, 0, 2, 1, // 50-55
	}}
}

// measurePinned runs a warm pass and then a measure pass of drivePinned
// under plan and returns the measure pass's Report with WallTime zeroed.
func measurePinned(t testing.TB, plan *SamplePlan) Report {
	t.Helper()
	p := New()
	if err := p.BeginSampleWarm(plan); err != nil {
		t.Fatal(err)
	}
	drivePinned(p)
	ckpts, err := p.FinishSampleWarm()
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if err := p.BeginSampleMeasure(plan, ckpts); err != nil {
		t.Fatal(err)
	}
	drivePinned(p)
	return stripTiming(p.Report())
}

// TestSampledMeasurePinned pins a weighted measure pass bit for bit: the
// whole Report of drivePinned under pinnedPlan, recorded before the live
// intervals shared the exact path's probe functions. It covers what the
// bench module's sampled digest covers, inside the root module's tests.
func TestSampledMeasurePinned(t *testing.T) {
	want := Report{
		Total: uarch.Events{Ops: 220320, LongOps: 8400, Branches: 2280, Taken: 1488, Mispredicts: 926, Loads: 63840, Stores: 36240,
			L2Hits: 4956, LLCHits: 1711, MemHits: 10885, TLBMisses: 4193, ICMisses: 2652, ITLBMisses: 9},
		Slots:   uarch.Slots{Retiring: 228720, BadSpec: 44448, FrontEnd: 161496, BackEnd: 5301676},
		Cycles:  1434085,
		TopDown: stats.TopDown{FrontEnd: 0.028153142944804525, BackEnd: 0.9242262487927843, BadSpec: 0.007748494684764152, Retiring: 0.03987211357764707},
		Methods: []MethodProfile{
			{Name: "inner", Events: uarch.Events{Ops: 201120, LongOps: 8400, Branches: 360, Taken: 536, Mispredicts: 168, Loads: 60000, Stores: 32400,
				L2Hits: 4605, LLCHits: 1548, MemHits: 8572, TLBMisses: 489, ICMisses: 2177, ITLBMisses: 7},
				Slots: uarch.Slots{Retiring: 209520, BadSpec: 8064, FrontEnd: 127040, BackEnd: 4007616}, Cycles: 1088060},
			{Name: "outer", Events: uarch.Events{Ops: 19200, LongOps: 0, Branches: 1920, Taken: 952, Mispredicts: 758, Loads: 3840, Stores: 3840,
				L2Hits: 351, LLCHits: 163, MemHits: 2313, TLBMisses: 3704, ICMisses: 475, ITLBMisses: 2},
				Slots: uarch.Slots{Retiring: 19200, BadSpec: 36384, FrontEnd: 34456, BackEnd: 1294060}, Cycles: 346025},
		},
		Coverage:  stats.Coverage{"inner": 0.7587137443038593, "outer": 0.24128625569614073},
		ModeledNS: 421789.70588235295,
	}
	if got := measurePinned(t, pinnedPlan()); !reflect.DeepEqual(got, want) {
		t.Fatalf("weighted measure pass diverged from the pinned Report\ngot  %+v\nwant %+v", got, want)
	}
}

// splitEvents separates a method's architectural counters, which a measure
// pass counts exactly in every interval, from its probe-outcome counters,
// which it extrapolates by interval weight.
func splitEvents(e uarch.Events) (arch [6]uint64, probe [7]uint64) {
	return [6]uint64{e.Ops, e.LongOps, e.Branches, e.Taken, e.Loads, e.Stores},
		[7]uint64{e.Mispredicts, e.L2Hits, e.LLCHits, e.MemHits, e.TLBMisses, e.ICMisses, e.ITLBMisses}
}

// TestSampledFoldLinear varies the weight w of one live interval of
// pinnedPlan, whose neighbours are live, and holds the fold to its
// arithmetic. Every probe counter must satisfy R(w) − R(1) = (w − 1)·(R(2) −
// R(1)) and the architectural counters must not move. At w = 0 the interval
// is dead, and the identity (in uint64 arithmetic) says R(2) − R(1) =
// R(1) − R(0): each unit of weight adds exactly the interval's own probe
// outcomes. A fold by w instead of w − 1, or a base recorded after the
// interval's first probe, breaks it.
func TestSampledFoldLinear(t *testing.T) {
	const varied = 15
	weights := []uint32{0, 1, 2, 5}
	events := make([]map[string]uarch.Events, len(weights))
	for i, w := range weights {
		plan := pinnedPlan()
		plan.Weights[varied] = w
		events[i] = map[string]uarch.Events{}
		for _, m := range measurePinned(t, plan).Methods {
			events[i][m.Name] = m.Events
		}
	}
	var grew uint64
	for _, name := range []string{"inner", "outer"} {
		arch1, r1 := splitEvents(events[1][name])
		_, r2 := splitEvents(events[2][name])
		for i, w := range weights {
			arch, r := splitEvents(events[i][name])
			if arch != arch1 {
				t.Errorf("%s at weight %d: architectural counters %v, want %v as at weight 1", name, w, arch, arch1)
			}
			for k := range r {
				if got, want := r[k]-r1[k], (uint64(w)-1)*(r2[k]-r1[k]); got != want {
					t.Errorf("%s probe counter %d at weight %d: R(w) − R(1) = %d, want (w − 1)·(R(2) − R(1)) = %d",
						name, k, w, int64(got), int64(want))
				}
			}
		}
		for k := range r1 {
			grew += r2[k] - r1[k]
		}
	}
	if grew == 0 {
		t.Fatalf("interval %d probes nothing; the test checks no fold", varied)
	}
}
