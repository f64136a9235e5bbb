package perf

import (
	"reflect"
	"testing"
)

// TestSetFootprintShrinkMatchesReference shrinks a method's footprint below
// its fetch offset mid-run, to one line. SetFootprint must reduce the offset
// modulo the new size, so the walks that follow fetch the line the
// reference's modular walk fetches: the method's first line, which the
// long walk before the shrink evicted, rather than the lines that walk left
// resident.
func TestSetFootprintShrinkMatchesReference(t *testing.T) {
	p := New()
	ref := AttachReference(p)
	p.SetFootprint("m", 64<<10)
	p.Enter("m")
	p.Ops(14999) // with Enter's op, a 60,000-byte walk
	m := p.method("m")
	if m.fetchOff != 60000 {
		t.Fatalf("fetchOff = %d before the shrink, want 60000", m.fetchOff)
	}
	p.SetFootprint("m", 64)
	if want := uint64(60000 % 64); m.fetchOff != want {
		t.Fatalf("fetchOff = %d after shrinking to one line, want %d", m.fetchOff, want)
	}
	p.Ops(16)
	p.Ops(700) // a walk capped at twice the new footprint
	p.Leave()
	got, want := stripTiming(p.Report()), stripTiming(ref())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report diverges from reference after the shrink\ngot:       %+v\nreference: %+v", got.Total, want.Total)
	}
	if got.Total.ICMisses == 0 {
		t.Fatal("no instruction-cache misses: the test exercises nothing")
	}
}

// fetchPhases drives three phases of intervalOps ops each, for a sampled
// plan of one interval per phase. "a" is one line of code, so each phase in
// it fetches a single line on a single page; "big" walks 256 pages, which
// evicts every other page from the 128-entry ITLB.
func fetchPhases(p *Profiler, after func(phase int)) {
	const intervalOps = 1 << 18
	p.SetFootprint("a", 64)
	p.SetFootprint("big", 1<<20)
	for phase, name := range []string{"a", "big", "a"} {
		p.Enter(name)
		p.Ops(100)
		p.Ops(intervalOps - 100)
		p.Leave()
		after(phase)
	}
}

// TestSampledRestoreCarriesFetchPageMemo restores a warm-pass checkpoint
// whose ITLB no longer holds the page the measure pass fetched last, before
// its dead interval. The first fetch after the restore goes to that page,
// on a line other than the restored line memo, so it must probe the ITLB
// and miss: a page memo left over from before the dead interval would skip
// the probe. Live intervals must count what the exact path counts in them,
// read from the reference at each interval boundary.
func TestSampledRestoreCarriesFetchPageMemo(t *testing.T) {
	exact := New()
	ref := AttachReference(exact)
	var at [3]Report
	fetchPhases(exact, func(phase int) { at[phase] = ref() })
	// Intervals 0 and 2 are live, 1 is dead.
	live := func(get func(Report) uint64) uint64 {
		return get(at[0]) + get(at[2]) - get(at[1])
	}
	wantIC := live(func(r Report) uint64 { return r.Total.ICMisses })
	wantITLB := live(func(r Report) uint64 { return r.Total.ITLBMisses })
	if gotITLB := at[2].Total.ITLBMisses - at[1].Total.ITLBMisses; gotITLB != 1 {
		t.Fatalf("exact path: %d ITLB misses in the last interval, want 1 (the evicted page of a)", gotITLB)
	}

	plan := &SamplePlan{IntervalOps: 1 << 18, Weights: []uint32{1, 0, 1}}
	p := New()
	if err := p.BeginSampleWarm(plan); err != nil {
		t.Fatal(err)
	}
	fetchPhases(p, func(int) {})
	ckpts, err := p.FinishSampleWarm()
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if err := p.BeginSampleMeasure(plan, ckpts); err != nil {
		t.Fatal(err)
	}
	fetchPhases(p, func(int) {})
	got := p.Report()
	if got.Total.ICMisses != wantIC || got.Total.ITLBMisses != wantITLB {
		t.Fatalf("measure pass: %d L1I and %d ITLB misses, exact path's live intervals %d and %d",
			got.Total.ICMisses, got.Total.ITLBMisses, wantIC, wantITLB)
	}
}
