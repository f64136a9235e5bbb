package perf

import (
	"reflect"
	"testing"
)

// stripTiming zeroes the fields that depend on the wall clock so two Reports
// of the same modeled execution compare equal.
func stripTiming(r Report) Report {
	r.WallTime = 0
	return r
}

// batchWorkload drives a profiler through a mixed event stream exercising
// every batched API. With batched=false it issues the exact per-event
// decomposition each batched call documents, so the two variants must
// produce bit-identical Reports.
func batchWorkload(p *Profiler, batched bool) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	p.Do("kernel", func() {
		for i := 0; i < 4000; i++ {
			base := next() % (16 << 20)
			stride := []uint64{1, 8, 64, 200}[i%4]
			n := next()%48 + 1
			taken := next()&3 != 0

			if batched {
				p.LoadRange(base, stride, n)
				p.OpsBranch(6, 9, taken)
				p.StoreRange(base+8192, stride, n/2)
				p.LoadStore(base + 64)
				p.LoadStoreRange(base+4096, stride, n/3)
			} else {
				for k := uint64(0); k < n; k++ {
					p.Load(base + k*stride)
				}
				p.Ops(6)
				p.Branch(9, taken)
				for k := uint64(0); k < n/2; k++ {
					p.Store(base + 8192 + k*stride)
				}
				p.Load(base + 64)
				p.Store(base + 64)
				for k := uint64(0); k < n/3; k++ {
					addr := base + 4096 + k*stride
					p.Load(addr)
					p.Store(addr)
				}
			}
			// Interleave non-batched events so fetch and memo state is
			// exercised between batches too.
			p.LongOps(2)
			p.Branch(11, i%5 != 0)
		}
	})
}

// TestBatchedMatchesPerEvent holds every batched API to its documented
// per-event decomposition: Reports must be bit-identical.
func TestBatchedMatchesPerEvent(t *testing.T) {
	pb := New()
	batchWorkload(pb, true)
	pe := New()
	batchWorkload(pe, false)
	rb, re := stripTiming(pb.Report()), stripTiming(pe.Report())
	if !reflect.DeepEqual(rb, re) {
		t.Errorf("batched report diverges from per-event\nbatched:   %+v\nper-event: %+v", rb.Total, re.Total)
	}
}

// TestReferencePathBitIdentical replays the same event stream through the
// optimized path and, in lockstep, the retained pre-optimization one: the
// whole point of the rewrite is that Reports do not change.
func TestReferencePathBitIdentical(t *testing.T) {
	for _, batched := range []bool{false, true} {
		opt := New()
		ref := AttachReference(opt)
		batchWorkload(opt, batched)
		ro, rr := stripTiming(opt.Report()), stripTiming(ref())
		if !reflect.DeepEqual(ro, rr) {
			t.Errorf("batched=%v: optimized report diverges from reference\noptimized: %+v\nreference: %+v",
				batched, ro.Total, rr.Total)
		}
	}
}

// TestProfilerReset holds a reused profiler to the fresh-profiler contract:
// after Reset, an identical event stream must yield an identical Report.
func TestProfilerReset(t *testing.T) {
	p := New()
	batchWorkload(p, true)
	first := stripTiming(p.Report())
	p.Reset()
	batchWorkload(p, true)
	second := stripTiming(p.Report())
	if !reflect.DeepEqual(first, second) {
		t.Errorf("report after Reset diverges\nfirst:  %+v\nsecond: %+v", first.Total, second.Total)
	}
}
