package perf

import "testing"

// Microbenchmarks for the event hot path, one per event shape. make
// bench-smoke runs each once to catch bit-rot. For timings, run
//
//	go test -run '^$' -bench . ./internal/perf/
//
// and compare two commits only in alternating pairs on one box. The retained
// reference path's timings are frozen in DESIGN.md §10.

// BenchmarkLoadHit measures an 8-byte-element walk over an L1-resident
// buffer: the dominant event of cache-friendly kernels. Seven of eight loads
// repeat the previous line, the case the same-line memo targets.
func BenchmarkLoadHit(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(uint64(i&511) * 8)
	}
}

// BenchmarkLoadStream measures an 8-byte-element walk over a 64 MiB buffer
// (lbm's access shape): every eighth load crosses into a fresh line and
// misses all the way to memory.
func BenchmarkLoadStream(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(uint64(i) * 8 % (64 << 20))
	}
}

// BenchmarkLoadMiss measures the adversarial line-stride walk: no same-line
// reuse at all, so every load pays the full four-level probe plus fills.
// This isolates the raw simulator speedup with no help from the memo.
func BenchmarkLoadMiss(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(uint64(i) * 64 % (64 << 20))
	}
}

// BenchmarkStore measures an 8-byte-element store walk over a resident
// buffer (TLB plus line fill, no latency classification).
func BenchmarkStore(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(uint64(i&511) * 8)
	}
}

// BenchmarkBranchPredictable measures a branch the tournament predictor
// learns perfectly.
func BenchmarkBranchPredictable(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Branch(1, true)
	}
}

// BenchmarkBranchRandom measures an unlearnable branch (constant
// mispredict-path work in the predictor tables).
func BenchmarkBranchRandom(b *testing.B) {
	p := New()
	p.Enter("bench")
	state := uint64(88172645463325252)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		p.Branch(1, state&1 == 0)
	}
}

// BenchmarkOpsBranch measures the fused work-then-branch call that the
// benchmark kernels' inner loops issue.
func BenchmarkOpsBranch(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OpsBranch(8, 3, i&7 != 0)
	}
}

// BenchmarkLoadRange measures a 64-load sequential batch (8-byte elements,
// i.e. 8 loads per cache line get coalesced into one probe at stride 1).
func BenchmarkLoadRange(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadRange(uint64(i)*512%(16<<20), 8, 64)
	}
}

// BenchmarkLoadStore measures the read-modify-write pair, whose store probe
// the batched form coalesces away.
func BenchmarkLoadStore(b *testing.B) {
	p := New()
	p.Enter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LoadStore(uint64(i&4095) * 16)
	}
}

// BenchmarkSampledMeasure measures one measure pass of drivePinned under
// pinnedPlan: live intervals probe, dead ones only count, and the weighted
// ones fold at their boundaries. The warm pass that takes the checkpoints
// runs once, outside the timer.
func BenchmarkSampledMeasure(b *testing.B) {
	plan := pinnedPlan()
	p := New()
	if err := p.BeginSampleWarm(plan); err != nil {
		b.Fatal(err)
	}
	drivePinned(p)
	ckpts, err := p.FinishSampleWarm()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		if err := p.BeginSampleMeasure(plan, ckpts); err != nil {
			b.Fatal(err)
		}
		drivePinned(p)
		p.Report()
	}
}
