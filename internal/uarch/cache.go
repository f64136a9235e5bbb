package uarch

import (
	"fmt"
	"math/bits"
)

// invalidTag marks an empty way. Tags are full line numbers (addr >>
// lineShift), so the sentinel collides only with an address in the last
// modeled line of the 64-bit space, which no benchmark address map reaches.
const invalidTag = ^uint64(0)

// maxWays bounds associativity: a set's whole LRU order is one 64-bit word
// of 4-bit way indices.
const maxWays = 16

// Per-nibble constants for the SWAR zero-nibble search in Access.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// Cache is a set-associative cache (or TLB, with LineSize = page size) with
// true-LRU replacement. This is the optimized event-path model: set
// selection is a mask (NewCache guarantees power-of-two sets), a set's tags
// are contiguous in one array, and its LRU order is one packed word, so a
// hit or fill updates replacement state with a few shifts instead of an
// age loop over the ways. Behaviour is bit-identical to RefCache;
// TestCacheMatchesReference and FuzzCacheMatchesReference hold the two to
// the same hit/miss sequence.
type Cache struct {
	name        string
	setMask     uint64
	ways        int
	lineShift   uint
	victimShift uint // 4*(ways-1): the LRU nibble's offset in an order word
	// tags of set s occupy tags[s*ways : (s+1)*ways]; invalidTag when empty.
	tags []uint64
	// order[s] lists set s's ways from most to least recently used, one way
	// index per nibble: nibble 0 is the MRU way, nibble ways-1 the victim.
	order []uint64

	accesses uint64
	misses   uint64
}

// CacheConfig describes a cache geometry.
type CacheConfig struct {
	Name     string
	SizeB    uint64 // total capacity in bytes
	Ways     int
	LineSize uint64 // bytes per line (page size for TLBs)
}

// NewCache builds a cache from its geometry. It panics on invalid geometry
// because configurations are compile-time constants of the model.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Ways <= 0 || cfg.SizeB == 0 || cfg.LineSize == 0 {
		panic(fmt.Sprintf("uarch: invalid cache config %+v", cfg))
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("uarch: cache %q has %d ways, more than %d", cfg.Name, cfg.Ways, maxWays))
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
	c := &Cache{
		name:        cfg.Name,
		setMask:     sets - 1,
		ways:        cfg.Ways,
		lineShift:   shift,
		victimShift: 4 * uint(cfg.Ways-1),
		tags:        make([]uint64, int(sets)*cfg.Ways),
		order:       make([]uint64, sets),
	}
	c.Reset()
	return c
}

// LineShift returns log2 of the line size: the granularity below which two
// addresses are indistinguishable to the model. The profiler's batched event
// APIs use it to coalesce consecutive same-line accesses.
func (c *Cache) LineShift() uint { return c.lineShift }

// Access looks up addr, updating replacement state, and reports whether it
// hit. On a miss the line is installed.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineShift
	set := line & c.setMask
	base := int(set) * c.ways
	ts := c.tags[base : base+c.ways : base+c.ways]
	o := &c.order[set]

	for w, t := range ts {
		if t == line {
			// Find way w's nibble: the lowest zero nibble of o xor w repeated
			// in every nibble, exact as the set's nibbles permute its ways.
			x := *o ^ uint64(w)*nibbleOnes
			p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3
			*o = promote(*o, p, uint64(w))
			return true
		}
	}

	// Miss: the LRU nibble names the victim. Reset orders the ways so that
	// still-empty ways are victims first and in index order, matching
	// RefCache's first-invalid-way fill.
	c.misses++
	victim := *o >> c.victimShift & 0xF
	ts[victim] = line
	*o = promote(*o, c.victimShift, victim)
	return false
}

// promote moves way w from nibble offset p (a multiple of 4) of order word
// o to nibble 0, shifting the more recently used nibbles below p up one
// place. Nibbles above p keep their place; p = 0 leaves o unchanged.
func promote(o uint64, p uint, w uint64) uint64 {
	below := uint64(1)<<p - 1
	above := ^(below<<4 | 0xF)
	return o&above | (o&below)<<4 | w
}

// Reset invalidates all lines and clears statistics. Each set's order word
// becomes ways-1, ..., 1, 0 from MRU to LRU, so cold fills take way 0, then
// way 1, and so on.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	var cold uint64
	for w := 0; w < c.ways; w++ {
		cold = cold<<4 | uint64(w)
	}
	for i := range c.order {
		c.order[i] = cold
	}
	c.accesses = 0
	c.misses = 0
}

// Stats reports accesses and misses since the last Reset.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// MissRate returns misses/accesses, or 0 when the cache was never accessed.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.name }

// MemoryResult classifies where a data access was satisfied.
type MemoryResult int

// Levels of the modeled memory hierarchy, ordered by increasing latency.
const (
	HitL1 MemoryResult = iota
	HitL2
	HitLLC
	HitMemory
)

// String returns the level name.
func (r MemoryResult) String() string {
	switch r {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	default:
		return "memory"
	}
}

// Hierarchy is a non-inclusive three-level data-cache hierarchy plus a
// DTLB, mirroring the i7-2600 memory system the paper's measurements ran
// on. A miss fills every level it passes, but an LLC eviction never
// back-invalidates L1 or L2.
type Hierarchy struct {
	L1   *Cache
	L2   *Cache
	LLC  *Cache
	DTLB *Cache

	tlbMisses uint64
}

// NewHierarchy builds the default hierarchy: 32 KiB/8-way L1, 256 KiB/8-way
// L2, 8 MiB/16-way LLC, 64-entry 4-way DTLB with 4 KiB pages.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:   NewCache(CacheConfig{Name: "L1D", SizeB: 32 << 10, Ways: 8, LineSize: 64}),
		L2:   NewCache(CacheConfig{Name: "L2", SizeB: 256 << 10, Ways: 8, LineSize: 64}),
		LLC:  NewCache(CacheConfig{Name: "LLC", SizeB: 8 << 20, Ways: 16, LineSize: 64}),
		DTLB: NewCache(CacheConfig{Name: "DTLB", SizeB: 64 * 4096, Ways: 4, LineSize: 4096}),
	}
}

// Access walks addr through the hierarchy and reports the level that
// satisfied it plus whether the DTLB missed.
func (h *Hierarchy) Access(addr uint64) (MemoryResult, bool) {
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
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	h.DTLB.Reset()
	h.tlbMisses = 0
}

// TLBMisses reports DTLB misses since the last Reset.
func (h *Hierarchy) TLBMisses() uint64 { return h.tlbMisses }
