package xz

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestRoundTripSimple(t *testing.T) {
	cases := [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("abcabcabcabcabcabcabc"),
		[]byte("hello world hello world hello"),
		bytes.Repeat([]byte{0}, 10000),
		bytes.Repeat([]byte("xyz"), 5000),
	}
	for _, data := range cases {
		comp, err := Compress(data, 64*kib, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decompress(comp, nil)
		if err != nil {
			t.Fatalf("decompress %d bytes: %v", len(data), err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip failed for %d bytes", len(data))
		}
	}
}

func TestRoundTripRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50000)
		data := make([]byte, n)
		rng.Read(data)
		comp, err := Compress(data, 32*kib, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decompress(comp, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		comp, err := Compress(data, 16*kib, nil)
		if err != nil {
			return false
		}
		out, err := Decompress(comp, nil)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatioOrdering(t *testing.T) {
	// Text compresses much better than random bytes.
	text := GenerateData(Workload{Data: DataText, Size: 64 * kib, Seed: 1})
	rnd := GenerateData(Workload{Data: DataRandom, Size: 64 * kib, Seed: 1})
	ct, err := Compress(text, 64*kib, nil)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compress(rnd, 64*kib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) >= len(rnd)/4 {
		t.Errorf("text compressed to %d of %d: expected strong compression", len(ct), len(text))
	}
	if len(cr) < len(rnd) {
		t.Errorf("random data compressed from %d to %d: should not compress", len(rnd), len(cr))
	}
	if len(cr) > len(rnd)+len(rnd)/10 {
		t.Errorf("random data expanded by more than 10%%: %d → %d", len(rnd), len(cr))
	}
}

func TestRepeatBlockCompressesNearlyAway(t *testing.T) {
	// A 4 KiB block repeated to 256 KiB, with a dictionary that holds it,
	// should collapse to a tiny stream of long matches.
	data := GenerateData(Workload{Data: DataRepeat, Size: 256 * kib, BlockSize: 4 * kib, Seed: 3})
	comp, err := Compress(data, 64*kib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > len(data)/20 {
		t.Errorf("repeated block compressed only to %d of %d", len(comp), len(data))
	}
}

func TestDictionarySizeLimitsMatches(t *testing.T) {
	// With a block larger than the dictionary, matches can't reach the
	// previous copy, so compression degrades sharply versus a fitting
	// dictionary.
	data := GenerateData(Workload{Data: DataRepeat, Size: 128 * kib, BlockSize: 24 * kib, Seed: 4})
	fits, err := Compress(data, 64*kib, nil)
	if err != nil {
		t.Fatal(err)
	}
	tooSmall, err := Compress(data, 8*kib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tooSmall) <= len(fits) {
		t.Errorf("small dictionary (%d bytes out) should lose to fitting one (%d bytes out)",
			len(tooSmall), len(fits))
	}
	// Both must still round trip.
	for _, c := range [][]byte{fits, tooSmall} {
		out, err := Decompress(c, nil)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	}
}

func TestDecompressCorruptInput(t *testing.T) {
	if _, err := Decompress([]byte{1, 2, 3}, nil); err == nil {
		t.Error("short input should fail")
	}
	data := []byte("some reasonable input data for compression")
	comp, err := Compress(data, 16*kib, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the stream body.
	if _, err := Decompress(comp[:len(comp)-6], nil); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestCompressRejectsTinyDictionary(t *testing.T) {
	if _, err := Compress([]byte("x"), 16, nil); err == nil {
		t.Error("tiny dictionary should be rejected")
	}
}

func TestGenerateDataDeterminism(t *testing.T) {
	for _, k := range []DataKind{DataText, DataRandom, DataRepeat, DataMixed} {
		w := Workload{Data: k, Size: 8 * kib, BlockSize: kib, Seed: 5}
		a, b := GenerateData(w), GenerateData(w)
		if !bytes.Equal(a, b) {
			t.Errorf("%v data not deterministic", k)
		}
		if len(a) != w.Size {
			t.Errorf("%v size = %d, want %d", k, len(a), w.Size)
		}
	}
}

func TestDataKindString(t *testing.T) {
	if DataText.String() != "text" || DataKind(42).String() == "" {
		t.Error("DataKind.String misbehaves")
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
		}
	}
	if alberta != 8 {
		t.Errorf("alberta workloads = %d, want 8 (paper ships eight)", alberta)
	}
}

func TestBenchmarkRun(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	r, err := core.Run(b, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum == 0 {
		t.Error("zero checksum")
	}
	rep := p.Report()
	for _, m := range []string{"lz_find_matches", "rc_encode", "rc_decode"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{Name: "w"}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestCoverageShiftsWithCompressibility(t *testing.T) {
	// The paper's Figure 2 point: xz redistributes time between match
	// finding and entropy coding as the workload changes.
	coverage := func(dk DataKind, block int) map[string]float64 {
		b := New()
		p := perf.New()
		w := Workload{
			Meta: core.Meta{Name: "probe", Kind: core.KindAlberta},
			Data: dk, Size: 96 * kib, BlockSize: block, DictSize: 64 * kib, Seed: 7,
		}
		if _, err := core.Run(b, w, p); err != nil {
			t.Fatal(err)
		}
		return p.Report().Coverage
	}
	repeat := coverage(DataRepeat, 4*kib)
	random := coverage(DataRandom, 0)
	// Random data spends relatively more modeled time in the range coder
	// (every byte is a literal) than the repeated data, which skews
	// toward long matches.
	if random["rc_encode"] <= repeat["rc_encode"] {
		t.Errorf("rc_encode coverage: random %v should exceed repeat %v",
			random["rc_encode"], repeat["rc_encode"])
	}
}

func TestGenerateWorkloadsDeterministic(t *testing.T) {
	b := New()
	a1, err := core.GenerateWorkloads(b, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.GenerateWorkloads(b, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i].(Workload) != a2[i].(Workload) {
			t.Errorf("workload %d differs", i)
		}
	}
	if _, err := core.GenerateWorkloads(b, 1, -1); err == nil {
		t.Error("negative n should fail")
	}
}

func TestBitTreeRoundTrip(t *testing.T) {
	enc := newRangeEncoder()
	tree := newBitTree(8)
	syms := []uint32{0, 1, 127, 128, 255, 42, 42, 42, 200}
	for _, s := range syms {
		tree.encode(enc, s)
	}
	buf := enc.finish()
	dec, err := newRangeDecoder(buf)
	if err != nil {
		t.Fatal(err)
	}
	tree2 := newBitTree(8)
	for i, want := range syms {
		got, err := tree2.decode(dec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("symbol %d: got %d, want %d", i, got, want)
		}
	}
}

func TestDirectBitsRoundTrip(t *testing.T) {
	enc := newRangeEncoder()
	vals := []struct {
		v uint32
		n int
	}{{0, 1}, {1, 1}, {5, 3}, {1023, 10}, {0xABCDE, 20}}
	for _, c := range vals {
		enc.encodeDirect(c.v, c.n)
	}
	dec, err := newRangeDecoder(enc.finish())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range vals {
		got, err := dec.decodeDirect(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.v {
			t.Errorf("value %d: got %d, want %d", i, got, c.v)
		}
	}
}
