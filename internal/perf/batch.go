package perf

import "repro/internal/uarch"

// Batched event APIs. Each call is *defined* by its per-event decomposition
// (stated in its doc comment) and is bit-identical to it in every Report
// field; benchmark kernels use the batched forms on their hottest inner
// loops to shed per-event call and bookkeeping overhead, and to let the
// same-line memo (see classifyLoad) collapse runs of consecutive same-line
// accesses into a single hierarchy probe.
//
// Phase-sampled passes (see sampled.go) keep the batched forms but handle
// them at batch granularity: the whole batch commits to the interval that
// is current at its start — probed in live intervals, counted only in dead
// ones — and any interval boundaries it spans fire after its ops land.
// Both the profile and the measure pass advance the interval clock through
// the identical batch calls, so boundaries fall at the same op positions
// and the plan's interval indices line up.
//
// Events on the three independent simulator channels — fetch (Ops/LongOps →
// L1I/ITLB), data (Load/Store → hierarchy) and branch (Branch → predictor)
// — only order within their own channel; fused calls such as OpsBranch may
// therefore reorder across channels and still report identically.

// LoadRange records n loads at base, base+stride, ..., base+(n-1)*stride:
// exactly `for k := 0..n-1 { Load(base + k*stride) }`, with the per-load
// bookkeeping hoisted out of the loop.
func (p *Profiler) LoadRange(base, stride uint64, n uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.LoadRange(m, base, stride, n)
	}
	m.loads += n
	m.ops += n
	if p.probing(m) {
		for k := uint64(0); k < n; k++ {
			p.classifyLoad(m, base+k*stride)
		}
	}
	p.tick(n)
}

// StoreRange records n stores at base, base+stride, ...: exactly
// `for k := 0..n-1 { Store(base + k*stride) }`.
func (p *Profiler) StoreRange(base, stride uint64, n uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.StoreRange(m, base, stride, n)
	}
	m.stores += n
	m.ops += n
	if p.probing(m) {
		for k := uint64(0); k < n; k++ {
			p.storeProbe(m, base+k*stride)
		}
	}
	p.tick(n)
}

// LoadStore records the read-modify-write idiom of stencil and solver
// kernels: exactly `Load(addr); Store(addr)`. The store's probe is always
// coalesced by the memo — the load just made the line MRU.
func (p *Profiler) LoadStore(addr uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.LoadStore(m, addr)
	}
	m.loads++
	m.stores++
	m.ops += 2
	if p.probing(m) {
		p.classifyLoad(m, addr)
	}
	p.tick(2)
}

// LoadStoreRange records n load/store pairs at base, base+stride, ...:
// exactly `for k := 0..n-1 { Load(base + k*stride); Store(base + k*stride) }`.
func (p *Profiler) LoadStoreRange(base, stride uint64, n uint64) {
	m := p.current
	if p.mirror != nil {
		p.mirror.LoadStoreRange(m, base, stride, n)
	}
	m.loads += n
	m.stores += n
	m.ops += 2 * n
	if p.probing(m) {
		for k := uint64(0); k < n; k++ {
			p.classifyLoad(m, base+k*stride)
		}
	}
	p.tick(2 * n)
}

// OpsBranch fuses the ubiquitous "do work, then branch on its result"
// kernel step: exactly `Ops(n); Branch(site, taken)` in one call.
func (p *Profiler) OpsBranch(n uint64, site uint64, taken bool) {
	m := p.current
	if p.mirror != nil {
		p.mirror.OpsBranch(m, n, site, taken)
	}
	m.ops += n + 1 // n work ops plus the branch itself retiring
	m.branches++
	if taken {
		m.taken++
	}
	pc := m.codeBase + site*8
	if p.probing(m) {
		p.fetch(m, n)
		if !p.tour.Observe(pc, taken) {
			m.sMispredicts++
		}
	} else {
		advanceFetch(m, n)
		p.samp.sign(pc, 1)
	}
	p.tick(n + 1)
}

// classifyLoad probes the hierarchy for one load and folds the outcome into
// the method's probe-outcome counters. A repeat of the last probed line is
// skipped: it is a guaranteed L1+DTLB MRU hit (same line ⇒ same page;
// touching an MRU way of a true-LRU set is the identity; an L1 hit never
// reaches L2/LLC), and HitL1 without a TLB miss increments nothing here.
func (p *Profiler) classifyLoad(m *methodRecord, addr uint64) {
	line := addr >> p.memShift
	if line == p.lastData {
		return
	}
	p.lastData = line
	res, tlbMiss := p.mem.Access(addr)
	if tlbMiss {
		m.sTLBMiss++
	}
	switch res {
	case uarch.HitL2:
		m.sL2++
	case uarch.HitLLC:
		m.sLLC++
	case uarch.HitMemory:
		m.sMem++
	}
}

// storeProbe probes the hierarchy for one store (TLB outcome only),
// with the same same-line memo as classifyLoad.
func (p *Profiler) storeProbe(m *methodRecord, addr uint64) {
	line := addr >> p.memShift
	if line == p.lastData {
		return
	}
	p.lastData = line
	if _, tlbMiss := p.mem.Access(addr); tlbMiss {
		m.sTLBMiss++
	}
}
