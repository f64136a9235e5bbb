package perf

import "repro/internal/uarch"

// refMirror is the retained pre-optimization event path, driven in lockstep
// with a host Profiler through its mirror seam. It is literal where the
// host is optimized: every batched call runs its documented per-event loop,
// every event probes (no same-line memo), and the simulators are the
// reference models of uarch/reference.go. Its counters live in a Profiler
// that holds only a method table, so its Report comes from the same code as
// the host's.
type refMirror struct {
	counts *Profiler
	recs   map[*methodRecord]*methodRecord
	tour   *uarch.RefTournament
	mem    *uarch.RefHierarchy
	l1i    *uarch.RefCache
	itlb   *uarch.RefCache

	// host and last cache the most recent rec lookup.
	host, last *methodRecord
}

func newRefMirror() *refMirror {
	return &refMirror{
		counts: &Profiler{model: uarch.DefaultModel(), methods: make(map[string]*methodRecord)},
		recs:   make(map[*methodRecord]*methodRecord),
		tour:   uarch.NewRefTournament(14),
		mem:    uarch.NewRefHierarchy(),
		l1i:    uarch.NewRefCache(uarch.CacheConfig{Name: "L1I", SizeB: 32 << 10, Ways: 8, LineSize: 64}),
		itlb:   uarch.NewRefCache(uarch.CacheConfig{Name: "ITLB", SizeB: 128 * 4096, Ways: 4, LineSize: 4096}),
	}
}

// rec returns the reference's own record for the host's record m. The
// footprint is read from m on every event, since SetFootprint is not
// mirrored; the counters and the fetch offset are the reference's own.
func (r *refMirror) rec(m *methodRecord) *methodRecord {
	if m != r.host {
		c, ok := r.recs[m]
		if !ok {
			c = r.counts.method(m.name)
			r.recs[m] = c
		}
		r.host, r.last = m, c
	}
	r.last.codeSize = m.codeSize
	return r.last
}

// fetch advances c's fetch pointer by n ops, probing the instruction cache
// and TLB for every 64-byte line crossed.
func (r *refMirror) fetch(c *methodRecord, n uint64) {
	bytes := n * opBytes
	if bytes > c.codeSize*2 {
		bytes = c.codeSize * 2
	}
	start := c.fetchOff
	for off := uint64(0); off < bytes; off += 64 {
		addr := c.codeBase + (start+off)%c.codeSize
		if !r.l1i.Access(addr) {
			c.icMiss++
		}
		if !r.itlb.Access(addr) {
			c.itlbMiss++
		}
	}
	c.fetchOff = (start + bytes) % c.codeSize
}

func (r *refMirror) Enter(m *methodRecord) { r.fetch(r.rec(m), 1) }

func (r *refMirror) Ops(m *methodRecord, n uint64) {
	c := r.rec(m)
	c.ops += n
	r.fetch(c, n)
}

func (r *refMirror) LongOps(m *methodRecord, n uint64) {
	c := r.rec(m)
	c.longOps += n
	r.fetch(c, n)
}

func (r *refMirror) Branch(m *methodRecord, site uint64, taken bool) {
	c := r.rec(m)
	c.branches++
	if taken {
		c.taken++
	}
	c.ops++
	if !r.tour.Observe(c.codeBase+site*8, taken) {
		c.sMispredicts++
	}
}

func (r *refMirror) Jump(m *methodRecord) {
	c := r.rec(m)
	c.ops++
	c.taken++
}

func (r *refMirror) Load(m *methodRecord, addr uint64) {
	c := r.rec(m)
	c.loads++
	c.ops++
	res, tlbMiss := r.mem.Access(addr)
	if tlbMiss {
		c.sTLBMiss++
	}
	switch res {
	case uarch.HitL2:
		c.sL2++
	case uarch.HitLLC:
		c.sLLC++
	case uarch.HitMemory:
		c.sMem++
	}
}

func (r *refMirror) Store(m *methodRecord, addr uint64) {
	c := r.rec(m)
	c.stores++
	c.ops++
	if _, tlbMiss := r.mem.Access(addr); tlbMiss {
		c.sTLBMiss++
	}
}

func (r *refMirror) LoadRange(m *methodRecord, base, stride, n uint64) {
	for k := uint64(0); k < n; k++ {
		r.Load(m, base+k*stride)
	}
}

func (r *refMirror) StoreRange(m *methodRecord, base, stride, n uint64) {
	for k := uint64(0); k < n; k++ {
		r.Store(m, base+k*stride)
	}
}

func (r *refMirror) LoadStore(m *methodRecord, addr uint64) {
	r.Load(m, addr)
	r.Store(m, addr)
}

func (r *refMirror) LoadStoreRange(m *methodRecord, base, stride, n uint64) {
	for k := uint64(0); k < n; k++ {
		r.LoadStore(m, base+k*stride)
	}
}

func (r *refMirror) OpsBranch(m *methodRecord, n, site uint64, taken bool) {
	r.Ops(m, n)
	r.Branch(m, site, taken)
}
