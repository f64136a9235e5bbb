// Reference (pre-optimization) simulator implementations, retained verbatim
// when the event path was rewritten for speed. They are the ground truth the
// optimized models are differentially tested against: uarch's tests hold
// Cache/RefCache and Tournament/RefTournament to identical outputs over
// randomized streams, and harness's differential test replays every
// benchmark × workload through both paths asserting bit-identical Reports
// (perf.Options.Reference selects this path end to end).
//
// Do not optimize this file. Its value is that it stays the naive, obviously
// correct model: modulo set selection, parallel lines/valid/lru slices, a
// full O(ways) probe and an unconditional O(ways) LRU update.

package uarch

import "fmt"

// RefCache is the retained pre-optimization set-associative true-LRU cache.
type RefCache struct {
	name      string
	sets      uint64
	ways      int
	lineShift uint
	// lines[set*ways+way] holds the tag; lru[set*ways+way] holds the age
	// (0 = most recently used).
	lines []uint64
	valid []bool
	lru   []uint8

	accesses uint64
	misses   uint64
}

// NewRefCache builds a reference cache from its geometry, with the same
// validity panics as NewCache.
func NewRefCache(cfg CacheConfig) *RefCache {
	if cfg.Ways <= 0 || cfg.SizeB == 0 || cfg.LineSize == 0 {
		panic(fmt.Sprintf("uarch: invalid cache config %+v", cfg))
	}
	if cfg.SizeB%(uint64(cfg.Ways)*cfg.LineSize) != 0 {
		panic(fmt.Sprintf("uarch: cache %q size %d not divisible by ways*linesize", cfg.Name, cfg.SizeB))
	}
	sets := cfg.SizeB / (uint64(cfg.Ways) * cfg.LineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("uarch: cache %q set count %d not a power of two", cfg.Name, sets))
	}
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	if cfg.LineSize != 1<<shift {
		panic(fmt.Sprintf("uarch: cache %q line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	n := int(sets) * cfg.Ways
	return &RefCache{
		name:      cfg.Name,
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: shift,
		lines:     make([]uint64, n),
		valid:     make([]bool, n),
		lru:       make([]uint8, n),
	}
}

// Access looks up addr, updating replacement state, and reports whether it
// hit. On a miss the line is installed.
func (c *RefCache) Access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineShift
	set := line % c.sets
	tag := line / c.sets
	base := int(set) * c.ways

	// Hit path.
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.lines[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}

	// Miss: fill the LRU (or first invalid) way.
	c.misses++
	victim := 0
	oldest := uint8(0)
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] >= oldest {
			oldest = c.lru[base+w]
			victim = w
		}
	}
	c.lines[base+victim] = tag
	c.valid[base+victim] = true
	// Treat the victim as the oldest line so that touch ages every other
	// way; otherwise cold fills would collapse all ages to zero and the
	// set would degenerate to fixed-way replacement.
	c.lru[base+victim] = uint8(c.ways - 1)
	c.touch(base, victim)
	return false
}

// touch marks way w of the set at base as most recently used.
func (c *RefCache) touch(base, w int) {
	age := c.lru[base+w]
	for i := 0; i < c.ways; i++ {
		if c.lru[base+i] < age {
			c.lru[base+i]++
		}
	}
	c.lru[base+w] = 0
}

// Reset invalidates all lines and clears statistics.
func (c *RefCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	c.accesses = 0
	c.misses = 0
}

// Stats reports accesses and misses since the last Reset.
func (c *RefCache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// Name returns the configured cache name.
func (c *RefCache) Name() string { return c.name }

// RefHierarchy is the reference counterpart of Hierarchy: the same
// three-level non-inclusive data hierarchy plus DTLB, built from RefCaches.
type RefHierarchy struct {
	L1   *RefCache
	L2   *RefCache
	LLC  *RefCache
	DTLB *RefCache

	tlbMisses uint64
}

// NewRefHierarchy builds the default hierarchy from reference caches, with
// the same geometry as NewHierarchy.
func NewRefHierarchy() *RefHierarchy {
	return &RefHierarchy{
		L1:   NewRefCache(CacheConfig{Name: "L1D", SizeB: 32 << 10, Ways: 8, LineSize: 64}),
		L2:   NewRefCache(CacheConfig{Name: "L2", SizeB: 256 << 10, Ways: 8, LineSize: 64}),
		LLC:  NewRefCache(CacheConfig{Name: "LLC", SizeB: 8 << 20, Ways: 16, LineSize: 64}),
		DTLB: NewRefCache(CacheConfig{Name: "DTLB", SizeB: 64 * 4096, Ways: 4, LineSize: 4096}),
	}
}

// Access walks addr through the hierarchy and reports the level that
// satisfied it plus whether the DTLB missed.
func (h *RefHierarchy) Access(addr uint64) (MemoryResult, bool) {
	tlbMiss := !h.DTLB.Access(addr)
	if tlbMiss {
		h.tlbMisses++
	}
	if h.L1.Access(addr) {
		return HitL1, tlbMiss
	}
	if h.L2.Access(addr) {
		return HitL2, tlbMiss
	}
	if h.LLC.Access(addr) {
		return HitLLC, tlbMiss
	}
	return HitMemory, tlbMiss
}

// Reset clears all levels and statistics.
func (h *RefHierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	h.DTLB.Reset()
	h.tlbMisses = 0
}

// TLBMisses reports DTLB misses since the last Reset.
func (h *RefHierarchy) TLBMisses() uint64 { return h.tlbMisses }

// refBimodal is the retained pre-optimization bimodal predictor: mix() is
// recomputed on every Observe rather than shared with the tournament's
// chooser lookup.
type refBimodal struct {
	table []twoBit
	mask  uint64
}

func newRefBimodal(bits uint) *refBimodal {
	n := uint64(1) << bits
	b := &refBimodal{table: make([]twoBit, n), mask: n - 1}
	b.Reset()
	return b
}

// Reset restores every counter to weakly taken.
func (b *refBimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2
	}
}

// Observe implements Predictor.
func (b *refBimodal) Observe(site uint64, taken bool) bool {
	idx := mix(site) & b.mask
	correct := b.table[idx].taken() == taken
	b.table[idx] = b.table[idx].update(taken)
	return correct
}

// refGShare is the retained pre-optimization gshare predictor: the history
// mask is recomputed from histLen on every Observe.
type refGShare struct {
	table   []twoBit
	mask    uint64
	history uint64
	histLen uint
}

func newRefGShare(bits, historyLen uint) *refGShare {
	n := uint64(1) << bits
	g := &refGShare{table: make([]twoBit, n), mask: n - 1, histLen: historyLen}
	g.Reset()
	return g
}

// Reset clears the history and restores counters to weakly taken.
func (g *refGShare) Reset() {
	g.history = 0
	for i := range g.table {
		g.table[i] = 2
	}
}

// Observe implements Predictor.
func (g *refGShare) Observe(site uint64, taken bool) bool {
	idx := (mix(site) ^ g.history) & g.mask
	correct := g.table[idx].taken() == taken
	g.table[idx] = g.table[idx].update(taken)
	g.history = (g.history << 1) & ((1 << g.histLen) - 1)
	if taken {
		g.history |= 1
	}
	return correct
}

// RefTournament is the retained pre-optimization tournament predictor: each
// component hashes the site independently (three mix() calls per branch).
type RefTournament struct {
	bimodal *refBimodal
	gshare  *refGShare
	chooser []twoBit // ≥2 selects gshare
	mask    uint64
}

// NewRefTournament returns a reference tournament predictor with 2^bits
// entries in each component table.
func NewRefTournament(bits uint) *RefTournament {
	n := uint64(1) << bits
	t := &RefTournament{
		bimodal: newRefBimodal(bits),
		gshare:  newRefGShare(bits, 12),
		chooser: make([]twoBit, n),
		mask:    n - 1,
	}
	t.Reset()
	return t
}

// Reset restores all component predictors and the chooser.
func (t *RefTournament) Reset() {
	t.bimodal.Reset()
	t.gshare.Reset()
	for i := range t.chooser {
		t.chooser[i] = 2 // weakly prefer gshare
	}
}

// Observe implements Predictor.
func (t *RefTournament) Observe(site uint64, taken bool) bool {
	idx := mix(site) & t.mask
	useGshare := t.chooser[idx].taken()
	bCorrect := t.bimodal.Observe(site, taken)
	gCorrect := t.gshare.Observe(site, taken)
	// Train the chooser toward whichever component was right.
	if gCorrect != bCorrect {
		t.chooser[idx] = t.chooser[idx].update(gCorrect)
	}
	if useGshare {
		return gCorrect
	}
	return bCorrect
}
