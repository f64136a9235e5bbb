package perf

import (
	"reflect"
	"testing"
)

// fuzzStrides are the batched strides a fuzzed stream picks from: a
// repeated address, byte and word walks inside one line, one line per
// element, and one page per element.
var fuzzStrides = [...]uint64{0, 1, 8, 64, 4096}

// fuzzNames are the methods a fuzzed stream enters.
var fuzzNames = [...]string{"alpha", "beta", "gamma", "delta"}

// maxFuzzEvents bounds the calls one fuzzed input issues, so a long input
// of 9000-element batches stays quick to replay.
const maxFuzzEvents = 512

// fuzzStream decodes a fuzzer's bytes into profiler calls. Reads past the
// end yield zeros, so every input decodes.
type fuzzStream struct {
	data []byte
	pos  int
	addr uint64 // the last data address, for same-line and nearby repeats
}

func (s *fuzzStream) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *fuzzStream) u16() uint64 { return uint64(s.byte()) | uint64(s.byte())<<8 }

// count is a batch or op count in [0, 9000]. One byte below 0xf0 is the
// count itself; a larger byte takes two more for a count up to 9000, so
// random inputs stay quick to replay while long batches stay reachable.
func (s *fuzzStream) count() uint64 {
	if b := s.byte(); b < 0xf0 {
		return uint64(b)
	}
	return s.u16() % 9001
}

func (s *fuzzStream) stride() uint64 { return fuzzStrides[int(s.byte())%len(fuzzStrides)] }

// address picks the next data address: the last one again, a byte offset
// from it (usually the same line), a few lines on (usually the same page),
// or a fresh address anywhere in 256 MiB.
func (s *fuzzStream) address() uint64 {
	b := s.byte()
	switch b & 3 {
	case 1:
		s.addr += uint64(b >> 2)
	case 2:
		s.addr += uint64(b>>2) << 6
	case 3:
		s.addr = s.u16()<<12 | uint64(s.byte())<<4
	}
	return s.addr
}

// driveFuzz issues the calls data decodes to, through every event API, and
// closes any region still open at the end.
func driveFuzz(p *Profiler, data []byte) {
	s := &fuzzStream{data: data}
	depth := 0
	for i := 0; i < maxFuzzEvents && s.pos < len(s.data); i++ {
		switch s.byte() % 14 {
		case 0:
			name := fuzzNames[int(s.byte())%len(fuzzNames)]
			if depth < 8 {
				p.Enter(name)
				depth++
			}
		case 1:
			if depth > 0 {
				p.Leave()
				depth--
			}
		case 2:
			name := fuzzNames[int(s.byte())%len(fuzzNames)]
			p.SetFootprint(name, s.u16())
		case 3:
			p.Ops(s.count())
		case 4:
			p.LongOps(s.count())
		case 5:
			b := s.byte()
			p.Branch(uint64(b>>1), b&1 != 0)
		case 6:
			p.Jump()
		case 7:
			p.Load(s.address())
		case 8:
			p.Store(s.address())
		case 9:
			p.LoadRange(s.address(), s.stride(), s.count())
		case 10:
			p.StoreRange(s.address(), s.stride(), s.count())
		case 11:
			p.LoadStore(s.address())
		case 12:
			p.LoadStoreRange(s.address(), s.stride(), s.count())
		case 13:
			b := s.byte()
			p.OpsBranch(s.count(), uint64(b>>1), b&1 != 0)
		}
	}
	for ; depth > 0; depth-- {
		p.Leave()
	}
}

// fuzzSeed is a short stream that takes every call once, with nested
// regions, a mid-run footprint change, same-line repeats, every stride and
// counts from 0 to 9000.
func fuzzSeed() []byte {
	return []byte{
		0, 0, // Enter alpha
		3, 40, // Ops 40
		7, 3, 0, 1, 8, // Load at a fresh address
		7, 0, // Load: the same address again
		7, 5, // Load: one byte on, same line
		8, 6, // Store: one line on
		0, 1, // Enter beta (nested)
		2, 1, 0, 16, // SetFootprint beta 4096 bytes, mid-run
		4, 9, // LongOps 9
		5, 7, // Branch site 3 taken
		6,          // Jump
		9, 0, 3, 0, // LoadRange, stride 64, n 0
		9, 3, 2, 0, 2, 2, 0xf0, 40, 35, // LoadRange at a fresh address, stride 8, n 9000
		10, 10, 3, 1, // StoreRange two lines on, stride 64, n 1
		11, 1, // LoadStore at the same address
		12, 3, 9, 0, 2, 4, 200, // LoadStoreRange at a fresh address, stride 4096, n 200
		12, 0, 1, 64, // LoadStoreRange, stride 1, n 64
		1,          // Leave beta
		13, 3, 100, // OpsBranch 100, site 1 taken
		13, 4, 0, // OpsBranch 0, site 2 not taken
		3, 0xf0, 40, 35, // Ops 9000
		2, 0, 0, 0, // SetFootprint alpha: clamped to 64 bytes
		3, 200, // Ops 200 in the 64-byte footprint
	}
}

// FuzzEventsMatchReference drives fuzzed streams through a default
// profiler with the retained pre-optimization path attached in lockstep,
// and requires the two Reports to be equal in every field but WallTime.
// The streams reach every event API, nested regions, footprint changes
// mid-run, same-line repeats and batches of up to 9000 elements.
func FuzzEventsMatchReference(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add([]byte{})
	rnd := make([]byte, 256)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range rnd {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rnd[i] = byte(x)
	}
	f.Add(rnd)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New()
		ref := AttachReference(p)
		driveFuzz(p, data)
		got, want := stripTiming(p.Report()), stripTiming(ref())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("optimized report diverges from reference\noptimized: %+v\nreference: %+v", got, want)
		}
	})
}
