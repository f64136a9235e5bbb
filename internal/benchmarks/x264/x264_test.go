package x264

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestBitstreamRoundTrip(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0b1011, 4)
	w.writeUE(0)
	w.writeUE(7)
	w.writeUE(255)
	w.writeSE(0)
	w.writeSE(-5)
	w.writeSE(9)
	r := &bitReader{buf: w.buf}
	if v, _ := r.readBits(4); v != 0b1011 {
		t.Errorf("bits = %b", v)
	}
	for _, want := range []uint32{0, 7, 255} {
		if v, err := r.readUE(); err != nil || v != want {
			t.Errorf("readUE = %d (%v), want %d", v, err, want)
		}
	}
	for _, want := range []int32{0, -5, 9} {
		if v, err := r.readSE(); err != nil || v != want {
			t.Errorf("readSE = %d (%v), want %d", v, err, want)
		}
	}
}

func TestBitReaderTruncation(t *testing.T) {
	r := &bitReader{buf: nil}
	if _, err := r.readBit(); !errors.Is(err, errBitstream) {
		t.Errorf("err = %v", err)
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range zigzag {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("zigzag invalid at %d", v)
		}
		seen[v] = true
	}
	// First entries follow the canonical pattern.
	if zigzag[0] != 0 || zigzag[1] != 1 || zigzag[2] != 8 {
		t.Errorf("zigzag head = %v", zigzag[:3])
	}
}

func TestDCTRoundTrip(t *testing.T) {
	var block [64]int32
	for i := range block {
		block[i] = int32((i*7)%255 - 127)
	}
	coefs := fdct(&block)
	back := idct(&coefs)
	for i := range block {
		if back[i] != block[i] {
			t.Fatalf("DCT round trip differs at %d: %d vs %d", i, back[i], block[i])
		}
	}
}

func TestEncodeDecodeReconstructionMatches(t *testing.T) {
	// The decoder must reproduce the encoder's local reconstruction
	// exactly (drift-free closed loop).
	frames := GenerateVideo(VideoParams{W: 48, H: 32, Frames: 5, Motion: 2, Noise: 8, Seed: 4})
	enc, err := NewEncoder(10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &bitWriter{}
	w.writeUE(48)
	w.writeUE(32)
	w.writeUE(uint32(len(frames)))
	w.writeUE(3)
	var recons []*Frame
	for i, f := range frames {
		recons = append(recons, enc.EncodeFrame(w, f, i))
	}
	decoded, err := Decode(w.buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		for j := range decoded[i].Pix {
			if decoded[i].Pix[j] != recons[i].Pix[j] {
				t.Fatalf("frame %d pixel %d: decoder %d vs encoder recon %d",
					i, j, decoded[i].Pix[j], recons[i].Pix[j])
			}
		}
	}
}

func TestQualityImprovesWithFinerQP(t *testing.T) {
	frames := GenerateVideo(VideoParams{W: 64, H: 48, Frames: 4, Motion: 2, Noise: 8, Seed: 5})
	minPSNR := func(qp int) float64 {
		bits, err := Encode(frames, qp, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(bits, nil)
		if err != nil {
			t.Fatal(err)
		}
		worst := 1e9
		for i := range frames {
			v, err := PSNR(frames[i], dec[i])
			if err != nil {
				t.Fatal(err)
			}
			if v < worst {
				worst = v
			}
		}
		return worst
	}
	fine, coarse := minPSNR(2), minPSNR(40)
	if fine <= coarse {
		t.Errorf("fine QP PSNR %v should beat coarse %v", fine, coarse)
	}
	if fine < 35 {
		t.Errorf("fine-QP PSNR %v unexpectedly low", fine)
	}
}

func TestFinerQPCostsMoreBits(t *testing.T) {
	frames := GenerateVideo(VideoParams{W: 64, H: 48, Frames: 4, Motion: 2, Noise: 8, Seed: 6})
	fine, err := Encode(frames, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Encode(frames, 30, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) <= len(coarse) {
		t.Errorf("fine QP bits %d should exceed coarse %d", len(fine), len(coarse))
	}
}

func TestMotionCompensationHelps(t *testing.T) {
	// With moving content, P frames (keyInterval large) should need fewer
	// bits than all-intra.
	frames := GenerateVideo(VideoParams{W: 96, H: 64, Frames: 8, Motion: 2, Noise: 0, Seed: 7})
	inter, err := Encode(frames, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := Encode(frames, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inter) >= len(intra) {
		t.Errorf("inter coding (%d bytes) should beat all-intra (%d bytes)", len(inter), len(intra))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{0xFF, 0x00}, nil); err == nil {
		t.Error("garbage stream should fail")
	}
	frames := GenerateVideo(VideoParams{W: 48, H: 32, Frames: 2, Motion: 1, Noise: 2, Seed: 8})
	bits, err := Encode(frames, 10, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bits[:len(bits)/2], nil); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0, 1, nil); err == nil {
		t.Error("QP 0 should fail")
	}
	if _, err := NewEncoder(10, 0, nil); err == nil {
		t.Error("key interval 0 should fail")
	}
}

func TestGenerateVideoDeterministic(t *testing.T) {
	p := VideoParams{W: 32, H: 32, Frames: 3, Motion: 2, Noise: 8, Seed: 9}
	a, b := GenerateVideo(p), GenerateVideo(p)
	for i := range a {
		for j := range a[i].Pix {
			if a[i].Pix[j] != b[i].Pix[j] {
				t.Fatal("video generator not deterministic")
			}
		}
	}
}

func TestTwoPassRoundTripsAndAdapts(t *testing.T) {
	frames := GenerateVideo(VideoParams{W: 64, H: 48, Frames: 8, Motion: 4, Noise: 8, Seed: 10})
	bits, err := EncodeTwoPass(frames, 12, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(frames))
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
	if alberta < 5 {
		t.Errorf("alberta workloads = %d, want ≥ 5", alberta)
	}
}

func TestBenchmarkRunProfiled(t *testing.T) {
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
	for _, m := range []string{"me_search", "transform", "entropy", "decode", "psnr_validate"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsRun(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 21, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
