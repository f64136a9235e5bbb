package perf

import (
	"math"
	"testing"
)

func TestProfilerBasicAttribution(t *testing.T) {
	p := New()
	p.Do("alpha", func() { p.Ops(1000) })
	p.Do("beta", func() { p.Ops(3000) })
	rep := p.Report()

	if rep.Total.Ops != 4000 {
		t.Errorf("total ops = %d, want 4000", rep.Total.Ops)
	}
	if len(rep.Methods) < 2 {
		t.Fatalf("methods = %d, want ≥2", len(rep.Methods))
	}
	if rep.Methods[0].Name != "beta" {
		t.Errorf("hottest method = %q, want beta", rep.Methods[0].Name)
	}
	ca, cb := rep.Coverage["alpha"], rep.Coverage["beta"]
	if cb <= ca {
		t.Errorf("coverage beta %v should exceed alpha %v", cb, ca)
	}
	sum := 0.0
	for _, v := range rep.Coverage {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("coverage sums to %v, want 1", sum)
	}
}

func TestProfilerNestedRegions(t *testing.T) {
	p := New()
	p.Enter("outer")
	p.Ops(100)
	p.Enter("inner")
	p.Ops(900)
	p.Leave()
	p.Ops(100)
	p.Leave()
	rep := p.Report()
	if rep.Coverage["inner"] <= rep.Coverage["outer"] {
		t.Errorf("inner self-coverage %v should exceed outer %v",
			rep.Coverage["inner"], rep.Coverage["outer"])
	}
}

func TestProfilerUnbalancedLeavePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Leave without Enter should panic")
		}
	}()
	New().Leave()
}

func TestProfilerReportWithOpenRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Report with open region should panic")
		}
	}()
	p := New()
	p.Enter("open")
	p.Ops(1)
	p.Report()
}

func TestProfilerTopDownFractionsSumToOne(t *testing.T) {
	p := New()
	p.Do("work", func() {
		for i := 0; i < 3000; i++ {
			p.Ops(10)
			p.Branch(1, i%7 != 0)
			p.Load(uint64(i) * 64 % 4096)
		}
	})
	rep := p.Report()
	if s := rep.TopDown.Sum(); math.Abs(s-1) > 1e-9 {
		t.Errorf("topdown sum = %v, want 1", s)
	}
	if rep.TopDown.Retiring <= 0 {
		t.Error("retiring fraction should be positive")
	}
}

func TestProfilerBranchBehaviourMatters(t *testing.T) {
	// Predictable branches should yield less bad speculation than random
	// ones with identical counts.
	run := func(pattern func(i int) bool) float64 {
		p := New()
		p.Do("b", func() {
			for i := 0; i < 20000; i++ {
				p.Branch(0, pattern(i))
				p.Ops(4)
			}
		})
		return p.Report().TopDown.BadSpec
	}
	predictable := run(func(i int) bool { return true })
	// Pseudo-random, unlearnable pattern.
	state := uint64(88172645463325252)
	random := run(func(i int) bool {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state&1 == 0
	})
	if random <= predictable {
		t.Errorf("random badspec %v should exceed predictable %v", random, predictable)
	}
}

func TestProfilerMemoryBehaviourMatters(t *testing.T) {
	// A large streaming working set should be more back-end bound than a
	// tiny resident one.
	run := func(span uint64) float64 {
		p := New()
		p.Do("m", func() {
			for i := uint64(0); i < 40000; i++ {
				p.Load((i * 64) % span)
				p.Ops(4)
			}
		})
		return p.Report().TopDown.BackEnd
	}
	small := run(4 << 10)
	large := run(64 << 20)
	if large <= small {
		t.Errorf("streaming backend %v should exceed resident %v", large, small)
	}
}

func TestProfilerCodeFootprintMatters(t *testing.T) {
	// Alternating between many large-footprint methods should be more
	// front-end bound than spinning in one small method.
	run := func(methods int, footprint uint64) float64 {
		p := New()
		names := make([]string, methods)
		for i := range names {
			names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			p.SetFootprint(names[i], footprint)
		}
		for round := 0; round < 200; round++ {
			for _, n := range names {
				p.Do(n, func() { p.Ops(256) })
			}
		}
		return p.Report().TopDown.FrontEnd
	}
	hot := run(1, 512)
	flat := run(64, 8<<10)
	if flat <= hot {
		t.Errorf("flat-profile frontend %v should exceed hot-loop %v", flat, hot)
	}
}

func TestProfilerDeterminism(t *testing.T) {
	run := func() Report {
		p := New()
		p.Do("d", func() {
			for i := 0; i < 5000; i++ {
				p.Ops(3)
				p.Branch(2, i%3 == 0)
				p.Load(uint64(i*97) % (1 << 20))
				p.Store(uint64(i*13) % (1 << 16))
			}
		})
		return p.Report()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.TopDown != b.TopDown {
		t.Errorf("topdown differs: %+v vs %+v", a.TopDown, b.TopDown)
	}
}

func TestProfilerLongOps(t *testing.T) {
	p := New()
	p.Do("fp", func() { p.LongOps(1000) })
	rep := p.Report()
	if rep.Total.LongOps != 1000 {
		t.Errorf("long ops = %d", rep.Total.LongOps)
	}
	if rep.TopDown.BackEnd <= 0 {
		t.Error("long ops should create back-end pressure")
	}
}

func TestModeledSeconds(t *testing.T) {
	if s := ModeledSeconds(uint64(ClockHz)); math.Abs(s-1) > 1e-9 {
		t.Errorf("ModeledSeconds(clock) = %v, want 1", s)
	}
}

func TestReportModeledNS(t *testing.T) {
	p := New()
	p.Do("w", func() { p.Ops(34000) })
	rep := p.Report()
	wantNS := float64(rep.Cycles) / ClockHz * 1e9
	if math.Abs(rep.ModeledNS-wantNS) > 1e-6 {
		t.Errorf("ModeledNS = %v, want %v", rep.ModeledNS, wantNS)
	}
}
