package xz

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// DataKind selects the synthetic data generator for a workload.
type DataKind int

const (
	// DataText is Markov-chain pseudo-text: highly compressible.
	DataText DataKind = iota
	// DataRandom is uniform random bytes: incompressible.
	DataRandom
	// DataRepeat repeats one block; when the block fits the dictionary
	// the run skews toward dictionary lookups (the paper's memoization
	// observation).
	DataRepeat
	// DataMixed interleaves text and random runs: medium entropy.
	DataMixed
)

// String names the data kind.
func (k DataKind) String() string {
	switch k {
	case DataText:
		return "text"
	case DataRandom:
		return "random"
	case DataRepeat:
		return "repeat"
	case DataMixed:
		return "mixed"
	default:
		return fmt.Sprintf("DataKind(%d)", int(k))
	}
}

// Workload is one 557.xz_r input: a synthetic data specification plus the
// dictionary size the compressor runs with.
type Workload struct {
	core.Meta
	Data      DataKind
	Size      int
	BlockSize int // DataRepeat block length
	DictSize  int
	Seed      int64
}

// GenerateData produces the workload's raw bytes deterministically.
func GenerateData(w Workload) []byte {
	rng := rand.New(rand.NewSource(w.Seed))
	switch w.Data {
	case DataText:
		return markovText(rng, w.Size)
	case DataRandom:
		b := make([]byte, w.Size)
		rng.Read(b)
		return b
	case DataRepeat:
		block := markovText(rng, w.BlockSize)
		out := make([]byte, 0, w.Size)
		for len(out) < w.Size {
			n := w.Size - len(out)
			if n > len(block) {
				n = len(block)
			}
			out = append(out, block[:n]...)
		}
		return out
	case DataMixed:
		out := make([]byte, 0, w.Size)
		for len(out) < w.Size {
			run := 256 + rng.Intn(1024)
			if run > w.Size-len(out) {
				run = w.Size - len(out)
			}
			if rng.Intn(2) == 0 {
				out = append(out, markovText(rng, run)...)
			} else {
				b := make([]byte, run)
				rng.Read(b)
				out = append(out, b...)
			}
		}
		return out
	default:
		return nil
	}
}

// markovText emits pseudo-text from a tiny order-1 word model.
func markovText(rng *rand.Rand, n int) []byte {
	words := []string{
		"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
		"compression", "dictionary", "window", "benchmark", "workload",
		"alberta", "spec", "cpu", "stream", "buffer", "encode", "decode",
	}
	out := make([]byte, 0, n)
	state := 0
	for len(out) < n {
		w := words[state]
		out = append(out, w...)
		out = append(out, ' ')
		// A sticky transition matrix creates repeated phrases.
		if rng.Intn(4) == 0 {
			state = rng.Intn(len(words))
		} else {
			state = (state*7 + 3) % len(words)
		}
		if rng.Intn(12) == 0 {
			out = append(out, '\n')
		}
	}
	return out[:n]
}

// Benchmark is the 557.xz_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "557.xz_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Data compression" }

const (
	kib = 1 << 10
	mib = 1 << 20
)

// Workloads returns SPEC-style inputs plus the eight Alberta workloads the
// paper describes: compressible and incompressible files, smaller and
// larger than the dictionary.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, dk DataKind, size, block, dict int, seed int64) core.Workload {
		return Workload{
			Meta: core.Meta{Name: name, Kind: kind},
			Data: dk, Size: size, BlockSize: block, DictSize: dict, Seed: seed,
		}
	}
	return []core.Workload{
		mk("test", core.KindTest, DataMixed, 8*kib, 0, 64*kib, 1),
		mk("train", core.KindTrain, DataMixed, 96*kib, 0, 64*kib, 2),
		mk("refrate", core.KindRefrate, DataMixed, 640*kib, 0, 256*kib, 3),
		// Compressibility × dictionary-fit grid (paper: "very
		// compressible and not very compressible... smaller and larger
		// than the dictionary").
		mk("alberta.text-small", core.KindAlberta, DataText, 48*kib, 0, 256*kib, 11),
		mk("alberta.text-large", core.KindAlberta, DataText, 768*kib, 0, 128*kib, 12),
		mk("alberta.random-small", core.KindAlberta, DataRandom, 48*kib, 0, 256*kib, 13),
		mk("alberta.random-large", core.KindAlberta, DataRandom, 512*kib, 0, 128*kib, 14),
		mk("alberta.repeat-fits", core.KindAlberta, DataRepeat, 512*kib, 4*kib, 256*kib, 15),
		mk("alberta.repeat-exceeds", core.KindAlberta, DataRepeat, 512*kib, 300*kib, 128*kib, 16),
		mk("alberta.mixed-small", core.KindAlberta, DataMixed, 64*kib, 0, 256*kib, 17),
		mk("alberta.mixed-large", core.KindAlberta, DataMixed, 512*kib, 0, 64*kib, 18),
	}, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	kinds := []DataKind{DataText, DataRandom, DataRepeat, DataMixed}
	dicts := []int{64 * kib, 128 * kib, 256 * kib}
	s := seed + int64(i)
	return Workload{
		Meta:      core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Data:      kinds[i%len(kinds)],
		Size:      (64 + int(s%8)*48) * kib,
		BlockSize: 4 * kib,
		DictSize:  dicts[i%len(dicts)],
		Seed:      s*2654435761 + 17,
	}, nil
}

// prepared holds the stored (pre-compressed) input, immutable after
// Prepare, plus the reusable scratch: the compressor's hash-chain arrays
// and the two decompression output buffers (one per measured decompress —
// the round-trip output must not overwrite the phase-1 data it is checked
// against).
type prepared struct {
	b  *Benchmark
	xw Workload
	// stored is the compressed input file; immutable.
	stored []byte
	// scratch
	sc      Scratch
	dataBuf []byte
	rtBuf   []byte
}

// Prepare implements core.Benchmark: generate the raw payload and compress
// it into the stored input, both uninstrumented (the stored input is
// prepared outside the measured run, as in SPEC's harness).
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	xw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	raw := GenerateData(xw)
	stored, err := Compress(raw, xw.DictSize, nil)
	if err != nil {
		return nil, err
	}
	return &prepared{b: b, xw: xw, stored: stored}, nil
}

// Execute implements core.PreparedWorkload: the three measured phases —
// decompress the stored input, recompress, decompress again — then
// validate (the SPEC xz execution structure).
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, xw := pw.b, pw.xw
	// Measured phase 1: decompress the stored file to memory.
	data, err := decompressInto(pw.dataBuf, pw.stored, p)
	if err != nil {
		return core.Result{}, fmt.Errorf("xz: %s: decompress stored: %w", xw.Name, err)
	}
	pw.dataBuf = data
	// Phase 2: compress.
	comp, err := compressWith(&pw.sc, data, xw.DictSize, p)
	if err != nil {
		return core.Result{}, err
	}
	// Phase 3: decompress again and validate.
	rt, err := decompressInto(pw.rtBuf, comp, p)
	if err != nil {
		return core.Result{}, fmt.Errorf("xz: %s: decompress round trip: %w", xw.Name, err)
	}
	pw.rtBuf = rt
	var crcIn, crcOut core.Checksum
	if p != nil {
		p.Enter("check_crc")
	}
	crcIn = core.NewChecksum().AddBytes(data)
	crcOut = core.NewChecksum().AddBytes(rt)
	if p != nil {
		p.Ops(uint64(len(data)+len(rt)) / 4)
		p.Leave()
	}
	if crcIn != crcOut {
		return core.Result{}, fmt.Errorf("xz: %s: round trip mismatch", xw.Name)
	}
	sum := core.NewChecksum().
		AddUint64(crcIn.Value()).
		AddUint64(uint64(len(comp))).
		AddUint64(uint64(len(data)))
	return core.Result{
		Benchmark: b.Name(),
		Workload:  xw.Name,
		Kind:      xw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
