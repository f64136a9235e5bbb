package uarch

import (
	"math/rand"
	"testing"
)

// cacheGeometries are the differential-test geometries: the real hierarchy's
// shapes plus deliberately awkward ones (direct-mapped-ish, single-set,
// tall-and-narrow, TLB-like pages, associativities that are not powers of
// two).
var cacheGeometries = []CacheConfig{
	{Name: "L1D", SizeB: 32 << 10, Ways: 8, LineSize: 64},
	{Name: "L2", SizeB: 256 << 10, Ways: 8, LineSize: 64},
	{Name: "LLC", SizeB: 8 << 20, Ways: 16, LineSize: 64},
	{Name: "DTLB", SizeB: 64 * 4096, Ways: 4, LineSize: 4096},
	{Name: "tiny", SizeB: 512, Ways: 2, LineSize: 32},
	{Name: "one-set", SizeB: 1024, Ways: 16, LineSize: 64},
	{Name: "one-way", SizeB: 4096, Ways: 1, LineSize: 64},
	{Name: "byte-lines", SizeB: 256, Ways: 4, LineSize: 1},
	{Name: "three-way", SizeB: 3 * 64 * 64, Ways: 3, LineSize: 64},
	{Name: "twelve-way", SizeB: 12 * 256 * 64, Ways: 12, LineSize: 64},
}

// streamFor builds an address stream that mixes the regimes the profiler
// generates: hot reuse, sequential streaming, strided walks, and uniform
// noise, so LRU state is exercised through hits, cold fills and evictions.
func streamFor(rng *rand.Rand, cfg CacheConfig, n int) []uint64 {
	span := 4 * cfg.SizeB // 4x capacity: plenty of conflict misses
	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = rng.Uint64() % span
	}
	stream := make([]uint64, n)
	seq := rng.Uint64() % span
	for i := range stream {
		switch rng.Intn(4) {
		case 0:
			stream[i] = hot[rng.Intn(len(hot))]
		case 1:
			seq += cfg.LineSize
			stream[i] = seq % (2 * span)
		case 2:
			stream[i] = (uint64(i) * 3 * cfg.LineSize) % span
		default:
			stream[i] = rng.Uint64() % (8 * span)
		}
	}
	return stream
}

// TestCacheMatchesReference holds the optimized Cache to the exact hit/miss
// sequence of the retained pre-optimization RefCache over randomized address
// streams on every geometry, including across a mid-stream Reset.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range cacheGeometries {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			opt := NewCache(cfg)
			ref := NewRefCache(cfg)
			stream := streamFor(rng, cfg, 20000)
			for i, addr := range stream {
				if i == len(stream)/2 {
					opt.Reset()
					ref.Reset()
				}
				oh, rh := opt.Access(addr), ref.Access(addr)
				if oh != rh {
					t.Fatalf("access %d (addr %#x): optimized hit=%v, reference hit=%v", i, addr, oh, rh)
				}
			}
			oa, om := opt.Stats()
			ra, rm := ref.Stats()
			if oa != ra || om != rm {
				t.Errorf("stats diverged: optimized %d/%d, reference %d/%d", oa, om, ra, rm)
			}
		})
	}
}

// FuzzCacheMatchesReference holds Cache to RefCache over a geometry and an
// address stream decoded from the input. Bytes 0-2 pick the geometry: 1 to
// 16 ways, 1 to 512 sets and 1 to 4096-byte lines, all independent. Each
// following byte pair (k, v) is one op, chosen by the top two bits of k:
// a same-set conflict (tag v among 2*ways+2 candidates, so the set
// overflows), a strided run of up to 8 accesses, a random address within
// 8x capacity, or a re-access of a recent address. Halfway through, the
// optimized cache is checkpointed; after the stream it is restored and the
// second half replayed, which must repeat the reference's hits and Stats.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{15, 9, 6, 0x00, 0x01, 0x00, 0x02, 0x41, 0x07, 0x80, 0x33, 0xc0, 0x01})
	f.Add([]byte{2, 0, 0, 0x05, 0x00, 0x05, 0x01, 0x05, 0x02, 0x05, 0x03, 0xc0, 0x00, 0x05, 0x04})
	f.Add([]byte{11, 4, 12, 0x7f, 0xff, 0x3f, 0x10, 0x93, 0x55, 0x01, 0x17, 0xff, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ways := 1 + int(data[0])%16
		sets := uint64(1) << (data[1] % 10)
		lineSize := uint64(1) << (data[2] % 13)
		cfg := CacheConfig{Name: "fuzz", SizeB: uint64(ways) * sets * lineSize, Ways: ways, LineSize: lineSize}
		stream := decodeCacheStream(data[3:], cfg, sets)
		opt := NewCache(cfg)
		ref := NewRefCache(cfg)
		mid := len(stream) / 2
		var st *CacheState
		var want []bool
		for i, addr := range stream {
			if i == mid {
				st = opt.Checkpoint()
			}
			oh, rh := opt.Access(addr), ref.Access(addr)
			if oh != rh {
				t.Fatalf("%+v access %d (addr %#x): optimized hit=%v, reference hit=%v", cfg, i, addr, oh, rh)
			}
			if i >= mid {
				want = append(want, rh)
			}
		}
		if st == nil {
			return
		}
		opt.Restore(st)
		for i, addr := range stream[mid:] {
			if got := opt.Access(addr); got != want[i] {
				t.Fatalf("%+v replay access %d (addr %#x): hit=%v after restore, want %v", cfg, mid+i, addr, got, want[i])
			}
		}
		oa, om := opt.Stats()
		ra, rm := ref.Stats()
		if oa != ra || om != rm {
			t.Errorf("%+v stats diverged: optimized %d/%d, reference %d/%d", cfg, oa, om, ra, rm)
		}
	})
}

// decodeCacheStream is FuzzCacheMatchesReference's address stream; only
// the first 256 ops are decoded so the minimizer stays fast.
func decodeCacheStream(ops []byte, cfg CacheConfig, sets uint64) []uint64 {
	span := 8 * cfg.SizeB
	var stream []uint64
	cursor := uint64(0)
	for i := 0; i+1 < len(ops) && i < 2*256; i += 2 {
		k, v := uint64(ops[i]), uint64(ops[i+1])
		switch k >> 6 {
		case 0:
			line := v%uint64(2*cfg.Ways+2)*sets + k%sets
			stream = append(stream, line*cfg.LineSize+v%cfg.LineSize)
		case 1:
			stride := (k&0x3f + 1) * cfg.LineSize / 2
			for n := v%8 + 1; n > 0; n-- {
				cursor = (cursor + stride) % span
				stream = append(stream, cursor)
			}
		case 2:
			x := (k<<8 | v + uint64(i)) * 0x9e3779b97f4a7c15
			stream = append(stream, (x^x>>29)%span)
		default:
			if len(stream) > 0 {
				stream = append(stream, stream[len(stream)-1-int(v)%min(len(stream), 8)])
			}
		}
	}
	return stream
}

// TestHierarchyMatchesReference checks the full data hierarchy: every access
// must be satisfied at the same level with the same TLB outcome.
func TestHierarchyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opt := NewHierarchy()
	ref := NewRefHierarchy()
	stream := streamFor(rng, CacheConfig{SizeB: 1 << 20, LineSize: 64}, 50000)
	for i, addr := range stream {
		or, ot := opt.Access(addr)
		rr, rt := ref.Access(addr)
		if or != rr || ot != rt {
			t.Fatalf("access %d (addr %#x): optimized (%v, tlb=%v), reference (%v, tlb=%v)",
				i, addr, or, ot, rr, rt)
		}
	}
	if opt.TLBMisses() != ref.TLBMisses() {
		t.Errorf("TLB misses diverged: %d vs %d", opt.TLBMisses(), ref.TLBMisses())
	}
}

// TestTournamentMatchesReference holds the single-hash Tournament to the
// prediction sequence of the retained three-hash RefTournament over random
// branch sites and outcomes, across a mid-stream Reset.
func TestTournamentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opt := NewTournament(14)
	ref := NewRefTournament(14)
	const n = 100000
	for i := 0; i < n; i++ {
		if i == n/2 {
			opt.Reset()
			ref.Reset()
		}
		site := uint64(rng.Intn(512)) * 8
		// Mix of biased, patterned and random branches.
		var taken bool
		switch site % 3 {
		case 0:
			taken = rng.Float64() < 0.9
		case 1:
			taken = i%4 != 0
		default:
			taken = rng.Intn(2) == 0
		}
		oc, rc := opt.Observe(site, taken), ref.Observe(site, taken)
		if oc != rc {
			t.Fatalf("branch %d (site %#x): optimized correct=%v, reference correct=%v", i, site, oc, rc)
		}
	}
}

// TestCacheLineShift pins the coalescing granularity the profiler's batched
// APIs depend on.
func TestCacheLineShift(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeB: 1024, Ways: 2, LineSize: 64})
	if c.LineShift() != 6 {
		t.Errorf("LineShift = %d, want 6", c.LineShift())
	}
}
