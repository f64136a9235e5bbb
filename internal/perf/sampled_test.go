package perf_test

import (
	"reflect"
	"testing"

	"repro/internal/perf"
	"repro/internal/phase"
)

// driveSynthetic emits a deterministic two-phase event stream: branchy
// pointer-chasing blocks alternating with streaming load/store blocks,
// roughly 4M retired ops. It exercises every primitive and batched API so
// the sampled hooks are covered end to end.
func driveSynthetic(p *perf.Profiler) {
	g := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		g = g*6364136223846793005 + 1442695040888963407
		return g
	}
	p.SetFootprint("chase", 8<<10)
	p.SetFootprint("stream", 2<<10)
	for block := 0; block < 24; block++ {
		if block%2 == 0 {
			p.Enter("chase")
			for i := 0; i < 20000; i++ {
				v := next()
				p.OpsBranch(3, v%97, v&(1<<33) != 0)
				p.Load(0x100000 + v%(48<<20))
				if i%64 == 0 {
					p.Jump()
				}
			}
			p.Leave()
		} else {
			p.Enter("stream")
			for i := 0; i < 500; i++ {
				base := next() % (8 << 20)
				p.LoadRange(0x4000000+base, 8, 64)
				p.StoreRange(0x8000000+base, 8, 32)
				p.LoadStoreRange(0xc000000+base, 16, 16)
				p.Branch(uint64(i%13), i%3 == 0)
				p.LongOps(50)
			}
			p.Leave()
		}
	}
}

// snapshot zeroes a Report's wall-clock field so two runs compare cleanly.
func snapshot(r perf.Report) perf.Report {
	r.WallTime = 0
	ms := make([]perf.MethodProfile, len(r.Methods))
	copy(ms, r.Methods)
	r.Methods = ms
	return r
}

// TestSampledAllLiveMatchesExact pins the degenerate case: a measure pass
// whose plan keeps every interval live must be bit-identical to exact
// simulation — same probes in the same order, weight-1 folds.
func TestSampledAllLiveMatchesExact(t *testing.T) {
	exact := perf.New()
	driveSynthetic(exact)
	er := snapshot(exact.Report())

	samp := perf.New()
	plan := &perf.SamplePlan{IntervalOps: 64 << 10, Weights: []uint32{1}}
	if err := samp.BeginSampleMeasure(plan, nil); err != nil {
		t.Fatal(err)
	}
	driveSynthetic(samp)
	sr := snapshot(samp.Report())

	if !reflect.DeepEqual(er, sr) {
		t.Fatalf("all-live sampled report diverged from exact:\nexact   %+v\nsampled %+v", er.Total, sr.Total)
	}
}

// TestSampledEndToEnd runs the full pipeline — profile pass, plan, measure
// pass — and checks that architectural counters are exact while
// extrapolated probe counters stay within a loose tolerance on a cleanly
// periodic stream.
func TestSampledEndToEnd(t *testing.T) {
	exact := perf.New()
	driveSynthetic(exact)
	er := exact.Report()

	p := perf.New()
	// 8K-op intervals resolve the synthetic's ~100K-op phase blocks cleanly;
	// coarser grids straddle block boundaries and the mixed intervals blur
	// the cluster shapes.
	const interval = 8 << 10
	if err := p.BeginSampleProfile(interval); err != nil {
		t.Fatal(err)
	}
	driveSynthetic(p)
	sigs, err := p.FinishSampleProfile()
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) < 16 {
		t.Fatalf("profile pass yielded only %d intervals", len(sigs))
	}
	plan, err := phase.BuildPlan(sigs, phase.Config{IntervalOps: interval, Phases: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Clustered {
		t.Fatal("expected a clustered plan for a long stream")
	}
	if live, n := plan.LiveIntervals(), plan.Intervals(); live >= n {
		t.Fatalf("plan simulates all %d intervals — nothing sampled", n)
	}

	p.Reset()
	if err := p.BeginSampleWarm(plan); err != nil {
		t.Fatal(err)
	}
	driveSynthetic(p)
	ckpts, err := p.FinishSampleWarm()
	if err != nil {
		t.Fatal(err)
	}

	p.Reset()
	if err := p.BeginSampleMeasure(plan, ckpts); err != nil {
		t.Fatal(err)
	}
	driveSynthetic(p)
	sr := p.Report()

	// Architectural counters never extrapolate: they must match exactly.
	if er.Total.Ops != sr.Total.Ops || er.Total.Branches != sr.Total.Branches ||
		er.Total.Taken != sr.Total.Taken || er.Total.Loads != sr.Total.Loads ||
		er.Total.Stores != sr.Total.Stores || er.Total.LongOps != sr.Total.LongOps {
		t.Fatalf("architectural counters diverged:\nexact   %+v\nsampled %+v", er.Total, sr.Total)
	}
	diff := perf.ReportError(er, sr)
	for _, v := range diff.Violations(perf.DefaultTolerance()) {
		t.Errorf("counter %s: exact %.0f sampled %.0f rel %.4f exceeds its tier budget %.2f",
			v.Name, v.Exact, v.Sampled, v.Rel, perf.DefaultTolerance().For(v.Events))
	}
}

// TestSampledDeterministic proves two complete sampled runs of the same
// stream produce byte-identical reports and identical plans.
func TestSampledDeterministic(t *testing.T) {
	run := func() (*perf.SamplePlan, perf.Report) {
		p := perf.New()
		const interval = 64 << 10
		if err := p.BeginSampleProfile(interval); err != nil {
			t.Fatal(err)
		}
		driveSynthetic(p)
		sigs, err := p.FinishSampleProfile()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := phase.BuildPlan(sigs, phase.Config{IntervalOps: interval, Phases: 4})
		if err != nil {
			t.Fatal(err)
		}
		p.Reset()
		if err := p.BeginSampleWarm(plan); err != nil {
			t.Fatal(err)
		}
		driveSynthetic(p)
		ckpts, err := p.FinishSampleWarm()
		if err != nil {
			t.Fatal(err)
		}
		p.Reset()
		if err := p.BeginSampleMeasure(plan, ckpts); err != nil {
			t.Fatal(err)
		}
		driveSynthetic(p)
		return plan, snapshot(p.Report())
	}
	plan1, r1 := run()
	plan2, r2 := run()
	if !reflect.DeepEqual(plan1, plan2) {
		t.Fatal("two profile passes built different plans")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two sampled measure passes produced different reports")
	}
}

// TestSampledProfilePassProbesNothing: the signature pass must leave every
// simulator-derived counter at zero — it is the cheap pass.
func TestSampledProfilePassProbesNothing(t *testing.T) {
	p := perf.New()
	if err := p.BeginSampleProfile(64 << 10); err != nil {
		t.Fatal(err)
	}
	driveSynthetic(p)
	r := p.Report()
	if r.Total.Mispredicts != 0 || r.Total.L2Hits != 0 || r.Total.LLCHits != 0 ||
		r.Total.MemHits != 0 || r.Total.TLBMisses != 0 || r.Total.ICMisses != 0 ||
		r.Total.ITLBMisses != 0 {
		t.Fatalf("profile pass produced probe outcomes: %+v", r.Total)
	}
	if r.Total.Ops == 0 || r.Total.Branches == 0 {
		t.Fatal("profile pass lost architectural counters")
	}
	if _, err := p.FinishSampleProfile(); err != nil {
		t.Fatal(err)
	}
}

func TestSampledModeGuards(t *testing.T) {
	p := perf.New()
	perf.AttachReference(p)
	if err := p.BeginSampleProfile(1 << 10); err == nil {
		t.Fatal("a profiler with a reference attached must be rejected")
	}
	p = perf.New()
	if err := p.BeginSampleProfile(1 << 10); err != nil {
		t.Fatal(err)
	}
	if err := p.BeginSampleMeasure(&perf.SamplePlan{IntervalOps: 1 << 10}, nil); err == nil {
		t.Fatal("nested sampled passes must be rejected")
	}
	p = perf.New()
	bad := &perf.SamplePlan{IntervalOps: 1 << 10, Weights: []uint32{0, 1}}
	if err := p.BeginSampleMeasure(bad, nil); err == nil {
		t.Fatal("a plan skipping interval 0 must be rejected")
	}
	gap := &perf.SamplePlan{IntervalOps: 1 << 10, Weights: []uint32{1, 0, 1}}
	if err := p.BeginSampleMeasure(gap, nil); err == nil {
		t.Fatal("a plan with a dead→live edge must demand warm-pass checkpoints")
	}
	if err := p.BeginSampleProfile(0); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if _, err := perf.New().FinishSampleProfile(); err == nil {
		t.Fatal("finish without begin must be rejected")
	}
	if _, err := perf.New().FinishSampleWarm(); err == nil {
		t.Fatal("finish warm without begin must be rejected")
	}
}

// TestReportErrorFloorsSmallCounters: a tiny absolute wobble on a counter
// near zero must not dominate the diff.
func TestReportErrorFloorsSmallCounters(t *testing.T) {
	exact := perf.New()
	driveSynthetic(exact)
	er := exact.Report()
	sr := er
	sr.Total.LongOps += 2 // tiny absolute error on a small counter
	d := perf.ReportError(er, sr)
	for _, c := range d.Counters {
		if c.Name == "long_ops" {
			continue
		}
		if c.Rel != 0 {
			t.Fatalf("unexpected error on %s: %v", c.Name, c.Rel)
		}
	}
	if !d.Within(0.02) && float64(er.Total.LongOps) > 2/(0.02) {
		t.Fatalf("floored relative error should pass a 2%% gate, got %+v", d.Max())
	}
}
