package uarch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBimodalLearnsAlwaysTaken(t *testing.T) {
	p := newRefBimodal(10)
	correct := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if p.Observe(0x400123, true) {
			correct++
		}
	}
	if correct < n-2 {
		t.Errorf("bimodal correct = %d/%d on always-taken branch", correct, n)
	}
}

func TestBimodalAlternatingIsHard(t *testing.T) {
	p := newRefBimodal(10)
	correct := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if p.Observe(0x400123, i%2 == 0) {
			correct++
		}
	}
	// A 2-bit counter cannot learn strict alternation: accuracy should be
	// mediocre.
	if correct > n*3/4 {
		t.Errorf("bimodal correct = %d/%d on alternating branch, expected poor accuracy", correct, n)
	}
}

func TestGShareLearnsAlternating(t *testing.T) {
	p := newRefGShare(12, 8)
	correct := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Observe(0x400123, i%2 == 0) {
			correct++
		}
	}
	// Global history makes alternation trivially learnable after warmup.
	if correct < n*9/10 {
		t.Errorf("gshare correct = %d/%d on alternating branch", correct, n)
	}
}

func TestGShareLearnsShortPattern(t *testing.T) {
	p := newRefGShare(14, 10)
	pattern := []bool{true, true, false, true, false, false}
	correct := 0
	const n = 6000
	for i := 0; i < n; i++ {
		if p.Observe(0xbeef, pattern[i%len(pattern)]) {
			correct++
		}
	}
	if correct < n*85/100 {
		t.Errorf("gshare correct = %d/%d on periodic pattern", correct, n)
	}
}

func TestTournamentAtLeastAsGoodAsWorstComponent(t *testing.T) {
	// On random outcomes every predictor hovers near 50%; on biased
	// outcomes the tournament should do well.
	p := NewTournament(12)
	rng := rand.New(rand.NewSource(1))
	correct := 0
	const n = 5000
	for i := 0; i < n; i++ {
		taken := rng.Float64() < 0.9
		if p.Observe(uint64(i%16)*64, taken) {
			correct++
		}
	}
	if correct < n*80/100 {
		t.Errorf("tournament correct = %d/%d on 90%%-biased branches", correct, n)
	}
}

func TestPredictorReset(t *testing.T) {
	preds := []Predictor{newRefBimodal(8), newRefGShare(8, 8), NewTournament(8)}
	for _, p := range preds {
		for i := 0; i < 100; i++ {
			p.Observe(42, false)
		}
		p.Reset()
		// After reset the initial state is weakly-taken, so a taken
		// branch is predicted correctly again.
		if !p.Observe(42, true) {
			t.Errorf("%T: post-reset state should predict taken", p)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineSize: 64})
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1008) {
		t.Error("same-line access should hit")
	}
	acc, miss := c.Stats()
	if acc != 3 || miss != 1 {
		t.Errorf("stats = %d/%d, want 3/1", acc, miss)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 8 sets of 64B lines: three lines mapping to the
	// same set must evict the least recently used.
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineSize: 64})
	sets := uint64(8)
	a := uint64(0)
	b := a + sets*64   // same set, different tag
	d := a + 2*sets*64 // same set, third tag
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a should still be resident")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	// A working set that fits sees ~100% hits after warmup; one that is
	// 4x the capacity thrashes.
	c := NewCache(CacheConfig{Name: "t", SizeB: 4096, Ways: 4, LineSize: 64})
	fit := uint64(4096)
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < fit; addr += 64 {
			c.Access(addr)
		}
	}
	if r := c.MissRate(); r > 0.3 {
		t.Errorf("fitting working set miss rate = %v", r)
	}
	c.Reset()
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 4*fit; addr += 64 {
			c.Access(addr)
		}
	}
	if r := c.MissRate(); r < 0.9 {
		t.Errorf("thrashing working set miss rate = %v, want ~1", r)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineSize: 64})
	c.Access(0x40)
	c.Reset()
	if c.Access(0x40) {
		t.Error("access after Reset should miss")
	}
	if acc, miss := c.Stats(); acc != 1 || miss != 1 {
		t.Errorf("stats after reset = %d/%d, want 1/1", acc, miss)
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		why string
		cfg CacheConfig
	}{
		{"non-power-of-two line size", CacheConfig{Name: "bad", SizeB: 1024, Ways: 2, LineSize: 48}},
		{"more ways than an order word holds", CacheConfig{Name: "bad", SizeB: 17 * 64, Ways: 17, LineSize: 64}},
		{"no ways", CacheConfig{Name: "bad", SizeB: 1024, Ways: 0, LineSize: 64}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic on %s", tc.why)
				}
			}()
			NewCache(tc.cfg)
		}()
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy()
	// First touch misses everywhere → memory.
	res, _ := h.Access(0x100000)
	if res != HitMemory {
		t.Errorf("cold access = %v, want memory", res)
	}
	// Immediately after, it is in L1.
	res, _ = h.Access(0x100000)
	if res != HitL1 {
		t.Errorf("warm access = %v, want L1", res)
	}
}

func TestHierarchyL2Capture(t *testing.T) {
	h := NewHierarchy()
	// Stream a working set larger than L1 (32 KiB) but smaller than L2
	// (256 KiB): steady-state accesses should mostly hit L2.
	size := uint64(128 << 10)
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < size; a += 64 {
			h.Access(a)
		}
	}
	l2hits := 0
	total := 0
	for a := uint64(0); a < size; a += 64 {
		res, _ := h.Access(a)
		total++
		if res == HitL2 {
			l2hits++
		}
	}
	if l2hits < total/2 {
		t.Errorf("L2 hits = %d/%d for L2-sized working set", l2hits, total)
	}
}

func TestHierarchyTLB(t *testing.T) {
	h := NewHierarchy()
	// Touch 256 distinct pages: far beyond the 64-entry DTLB.
	for p := uint64(0); p < 256; p++ {
		h.Access(p << 12)
	}
	if h.TLBMisses() != 256 {
		t.Errorf("cold TLB misses = %d, want 256", h.TLBMisses())
	}
	h.Reset()
	// One page touched repeatedly: one miss only.
	for i := 0; i < 100; i++ {
		h.Access(0x5000)
	}
	if h.TLBMisses() != 1 {
		t.Errorf("hot-page TLB misses = %d, want 1", h.TLBMisses())
	}
}

func TestModelAccountPureCompute(t *testing.T) {
	m := DefaultModel()
	s := m.Account(Events{Ops: 4000})
	if s.Retiring != 4000 || s.BadSpec != 0 || s.BackEnd != 0 || s.FrontEnd != 0 {
		t.Errorf("pure compute slots = %+v", s)
	}
	if c := m.Cycles(s); c != 1000 {
		t.Errorf("cycles = %d, want 1000", c)
	}
}

func TestModelAccountMispredicts(t *testing.T) {
	m := DefaultModel()
	// The default penalty and a non-default one: Account must read the
	// model's field, not a constant equal to the default.
	for _, penalty := range []uint64{m.MispredictPenalty, 100} {
		m.MispredictPenalty = penalty
		s := m.Account(Events{Ops: 100, Mispredicts: 10})
		want := 10 * penalty * m.IssueWidth
		if s.BadSpec != want {
			t.Errorf("penalty %d: badspec slots = %d, want %d", penalty, s.BadSpec, want)
		}
	}
}

func TestModelAccountMemory(t *testing.T) {
	m := DefaultModel()
	s := m.Account(Events{Ops: 100, Loads: 50, MemHits: 50})
	if s.BackEnd == 0 {
		t.Error("memory-bound events should produce back-end slots")
	}
	s2 := m.Account(Events{Ops: 100, Loads: 50, L2Hits: 50})
	if s2.BackEnd >= s.BackEnd {
		t.Error("L2 hits should stall less than DRAM hits")
	}
}

func TestModelFractionsSumToOne(t *testing.T) {
	f := func(ops, mis, l2, llc, mem, ic uint16) bool {
		m := DefaultModel()
		s := m.Account(Events{
			Ops:         uint64(ops) + 1,
			Mispredicts: uint64(mis),
			L2Hits:      uint64(l2),
			LLCHits:     uint64(llc),
			MemHits:     uint64(mem),
			ICMisses:    uint64(ic),
		})
		fe, be, bs, rt := s.Fractions()
		sum := fe + be + bs + rt
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotsAddAndEventsAdd(t *testing.T) {
	var s Slots
	s.Add(Slots{Retiring: 1, BadSpec: 2, FrontEnd: 3, BackEnd: 4})
	s.Add(Slots{Retiring: 10, BadSpec: 20, FrontEnd: 30, BackEnd: 40})
	if s.Total() != 110 {
		t.Errorf("total = %d, want 110", s.Total())
	}
	var e Events
	e.Add(Events{Ops: 5, Loads: 2})
	e.Add(Events{Ops: 1, Stores: 3})
	if e.Ops != 6 || e.Loads != 2 || e.Stores != 3 {
		t.Errorf("events = %+v", e)
	}
}

func TestMemoryResultString(t *testing.T) {
	for res, want := range map[MemoryResult]string{HitL1: "L1", HitL2: "L2", HitLLC: "LLC", HitMemory: "memory"} {
		if res.String() != want {
			t.Errorf("%d.String() = %q, want %q", res, res.String(), want)
		}
	}
}
