// Package core defines the vocabulary of the reproduction: a Benchmark is a
// program under study, a Workload is one input to it, and a Result is one
// profiled execution. The Alberta contribution — additional workloads and
// generators beyond SPEC's train/refrate pair — is expressed through the
// Kind taxonomy and the Generator interface. Every benchmark splits a run
// into an uninstrumented Prepare and a measured PreparedWorkload.Execute;
// Run joins the two for a single cold execution.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/perf"
)

// Kind classifies a workload by provenance, mirroring the paper's taxonomy.
type Kind int

const (
	// KindTest is SPEC's smoke-test input: too short for measurement.
	KindTest Kind = iota
	// KindTrain is SPEC's FDO-training input.
	KindTrain
	// KindRefrate is SPEC's reference (measurement) input.
	KindRefrate
	// KindAlberta is an additional workload from the Alberta set.
	KindAlberta
)

// String returns the SPEC-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindTest:
		return "test"
	case KindTrain:
		return "train"
	case KindRefrate:
		return "refrate"
	case KindAlberta:
		return "alberta"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Workload is one input to a benchmark. Concrete workload types live in the
// benchmark packages; the harness only needs identity and provenance.
type Workload interface {
	// WorkloadName identifies the workload uniquely within its benchmark.
	WorkloadName() string
	// WorkloadKind reports the workload's provenance.
	WorkloadKind() Kind
}

// Meta is a ready-made Workload implementation for embedding in concrete
// workload types.
type Meta struct {
	Name string
	Kind Kind
}

// WorkloadName implements Workload.
func (m Meta) WorkloadName() string { return m.Name }

// WorkloadKind implements Workload.
func (m Meta) WorkloadKind() Kind { return m.Kind }

// Result is one profiled execution of a benchmark with a workload.
type Result struct {
	Benchmark string
	Workload  string
	Kind      Kind
	// Checksum validates the computation's output: identical workloads
	// must produce identical checksums across runs (the model is
	// deterministic), and tests use it to detect broken implementations.
	Checksum uint64
	// Report carries the modeled hardware observation.
	Report perf.Report
}

// Benchmark is a program under study together with its workload inventory.
// Implementations must be deterministic: the same workload always produces
// the same checksum and the same modeled events.
type Benchmark interface {
	// Name returns the SPEC-style identifier, e.g. "505.mcf_r".
	Name() string
	// Area returns the application area, e.g. "Route planning".
	Area() string
	// Workloads returns the full inventory: SPEC-style train and refrate
	// workloads plus any Alberta workloads. Order is stable.
	Workloads() ([]Workload, error)
	// Prepare does every piece of input construction for w that does not
	// belong under measurement — parsing, payload generation, master
	// encodes — and returns the handle whose Execute is the measured
	// phase. Prepare must not receive or touch a *perf.Profiler
	// (albertalint's no-profiler-in-prepare rule enforces this
	// statically); profiler interaction, including SetFootprint, belongs
	// in Execute.
	Prepare(w Workload) (PreparedWorkload, error)
}

// Generator is implemented by benchmarks that can procedurally create new
// workloads (the paper's generator scripts and programs).
//
// The generated-workload contract, which sweeps and the service's cell
// cache rely on:
//
//   - Determinism: GenerateWorkload(seed, index) must return the same
//     workload — bit-identical input and, when executed, bit-identical
//     checksum and profiler event stream — on every call, every process,
//     every platform. Each workload depends on (seed, index) alone, so
//     GenerateWorkloads(g, seed, n) is prefix-stable by construction: a
//     workload's identity does not depend on the sweep size that first
//     produced it.
//   - Provenance naming: workload index must be named
//     GeneratedName(seed, index) and carry KindAlberta, so the name alone
//     records how to regenerate the workload (ResolveWorkload does exactly
//     that, in one call). Names of inventory workloads never collide with
//     the generated namespace.
//   - Domain: every (seed, index) with 0 <= seed <= MaxGeneratedSeed and
//     0 <= index <= MaxGeneratedIndex yields a valid workload. Callers never pass
//     anything outside it: ParseGeneratedName and GenerateWorkloads reject
//     it first.
//
// internal/benchmarks' generator tests pin these properties for every
// generator-capable benchmark in the suite.
type Generator interface {
	// GenerateWorkload creates the index-th Alberta-kind workload of seed.
	GenerateWorkload(seed int64, index int) (Workload, error)
}

// MaxGeneratedSeed and MaxGeneratedIndex bound the generated domain:
// generator seeds lie in [0, 2^32) and workload indices in [0, 2^31).
// Every generator is checked at the domain's corners; outside it, seed +
// index arithmetic in the generators can go negative or overflow.
const (
	MaxGeneratedSeed  int64 = 1<<32 - 1
	MaxGeneratedIndex       = 1<<31 - 1
)

// inGeneratedDomain reports whether (seed, index) lies in the generated
// domain.
func inGeneratedDomain(seed int64, index int) bool {
	return seed >= 0 && seed <= MaxGeneratedSeed && index >= 0 && index <= MaxGeneratedIndex
}

// GenerateWorkloads returns workloads 0..n-1 of seed from g. It rejects a
// seed or count outside the generated domain before g runs.
func GenerateWorkloads(g Generator, seed int64, n int) ([]Workload, error) {
	if n <= 0 || !inGeneratedDomain(seed, n-1) {
		return nil, fmt.Errorf("core: seed %d, count %d: outside the generated domain (0 <= seed <= %d, 1 <= count <= %d)",
			seed, n, MaxGeneratedSeed, int64(MaxGeneratedIndex)+1)
	}
	out := make([]Workload, n)
	for i := range out {
		w, err := g.GenerateWorkload(seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// GeneratedName is the canonical name of the i-th workload generated from
// seed: "gen.s<seed>.<i>". The name is the workload's provenance — parsing
// it back recovers the (seed, index) pair that regenerates the workload.
func GeneratedName(seed int64, index int) string {
	return fmt.Sprintf("gen.s%d.%d", seed, index)
}

// ParseGeneratedName recovers the provenance of a GeneratedName. ok is
// false for any name outside the generated namespace, including names
// whose seed or index lies outside the generated domain.
func ParseGeneratedName(name string) (seed int64, index int, ok bool) {
	rest, found := strings.CutPrefix(name, "gen.s")
	if !found {
		return 0, 0, false
	}
	dot := strings.LastIndexByte(rest, '.')
	if dot <= 0 || dot == len(rest)-1 {
		return 0, 0, false
	}
	seed, err := strconv.ParseInt(rest[:dot], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	index, err = strconv.Atoi(rest[dot+1:])
	if err != nil || !inGeneratedDomain(seed, index) {
		return 0, 0, false
	}
	// Round-trip exactness rejects aliases like "gen.s01.2".
	if GeneratedName(seed, index) != name {
		return 0, 0, false
	}
	return seed, index, true
}

// ResolveWorkload finds a workload by name. A generated name is rebuilt
// from its recorded seed and index with one GenerateWorkload call — the
// inventory is never built, since inventory names never collide with the
// generated namespace; any other name is looked up in the inventory. This
// is how a sweep cell can be executed anywhere (a remote worker, a later
// process) from nothing but its benchmark and workload names.
func ResolveWorkload(b Benchmark, name string) (Workload, error) {
	seed, index, ok := ParseGeneratedName(name)
	if !ok {
		return FindWorkload(b, name)
	}
	gen, isGen := b.(Generator)
	if !isGen {
		return nil, fmt.Errorf("%w: %s/%s (benchmark cannot generate workloads)", ErrNoWorkload, b.Name(), name)
	}
	w, err := gen.GenerateWorkload(seed, index)
	if err != nil {
		return nil, fmt.Errorf("core: regenerating %s/%s: %w", b.Name(), name, err)
	}
	if w.WorkloadName() != name {
		return nil, fmt.Errorf("core: %s generator violated the provenance contract for %s", b.Name(), name)
	}
	return w, nil
}

// PreparedWorkload is a fully constructed benchmark input: the result of
// the uninstrumented prepare phase, ready to be executed — and re-executed
// — under measurement. Implementations hold two kinds of state:
//
//   - the prepared input proper (parsed documents, generated payloads,
//     geometry, topologies), which is immutable after Prepare; and
//   - mutable scratch (lattice arrays, solver state, buffers), which
//     Execute resets in place at the start of every call instead of
//     reallocating.
//
// Execute must be repeatable: every call on the same handle must produce a
// Result and a profiler event stream identical to Run on the same workload
// with a fresh profiler. The harness relies on this to prepare once per
// (benchmark, workload) cell and reuse the handle across all repetitions.
//
// A PreparedWorkload is not safe for concurrent Execute calls; the harness
// runs at most one repetition of a cell at a time.
type PreparedWorkload interface {
	// Execute runs the measured phase, reporting events to p (which may be
	// nil for an unprofiled run).
	Execute(p *perf.Profiler) (Result, error)
}

// Run prepares w and executes it once on p: the cold path for callers
// that run a workload a single time (tests, generator verification, the
// examples). The harness calls Prepare itself and reuses the handle.
func Run(b Benchmark, w Workload, p *perf.Profiler) (Result, error) {
	pw, err := b.Prepare(w)
	if err != nil {
		return Result{}, err
	}
	return pw.Execute(p)
}

// PrepareOrRun is b.Prepare(w). It predates Prepare joining the Benchmark
// interface and is kept only because bench/probe.go calls it; new code
// calls b.Prepare directly.
func PrepareOrRun(b Benchmark, w Workload) (PreparedWorkload, error) {
	return b.Prepare(w)
}

// ErrUnknownWorkload is returned by Prepare when handed a workload the
// benchmark does not recognize.
var ErrUnknownWorkload = errors.New("core: unknown workload type for benchmark")

// ErrNoWorkload is returned when a named workload cannot be found.
var ErrNoWorkload = errors.New("core: no such workload")

// FindWorkload returns the workload with the given name from b's inventory.
func FindWorkload(b Benchmark, name string) (Workload, error) {
	ws, err := b.Workloads()
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.WorkloadName() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("%w: %s/%s", ErrNoWorkload, b.Name(), name)
}

// WorkloadsOfKind filters b's inventory by kind.
func WorkloadsOfKind(b Benchmark, kind Kind) ([]Workload, error) {
	ws, err := b.Workloads()
	if err != nil {
		return nil, err
	}
	var out []Workload
	for _, w := range ws {
		if w.WorkloadKind() == kind {
			out = append(out, w)
		}
	}
	return out, nil
}

// MeasurementWorkloads returns every workload suitable for measurement:
// train, refrate and Alberta kinds (test inputs are excluded, as in the
// paper).
func MeasurementWorkloads(b Benchmark) ([]Workload, error) {
	ws, err := b.Workloads()
	if err != nil {
		return nil, err
	}
	var out []Workload
	for _, w := range ws {
		if w.WorkloadKind() != KindTest {
			out = append(out, w)
		}
	}
	return out, nil
}

// Suite is an ordered collection of benchmarks.
type Suite struct {
	byName map[string]Benchmark
	order  []string
}

// NewSuite builds a suite from benchmarks; duplicate names are an error.
func NewSuite(benchmarks ...Benchmark) (*Suite, error) {
	s := &Suite{byName: make(map[string]Benchmark, len(benchmarks))}
	for _, b := range benchmarks {
		if _, dup := s.byName[b.Name()]; dup {
			return nil, fmt.Errorf("core: duplicate benchmark %q", b.Name())
		}
		s.byName[b.Name()] = b
		s.order = append(s.order, b.Name())
	}
	sort.Strings(s.order)
	return s, nil
}

// Benchmarks returns the suite members in name order.
func (s *Suite) Benchmarks() []Benchmark {
	out := make([]Benchmark, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.byName[n])
	}
	return out
}

// Lookup returns the benchmark with the given name.
func (s *Suite) Lookup(name string) (Benchmark, bool) {
	b, ok := s.byName[name]
	return b, ok
}

// Len returns the number of benchmarks in the suite.
func (s *Suite) Len() int { return len(s.order) }

// Checksum is a small helper for benchmarks to fold output bytes/values
// into a stable checksum (FNV-1a).
type Checksum uint64

// NewChecksum returns the FNV-1a offset basis.
func NewChecksum() Checksum { return 14695981039346656037 }

// AddUint64 folds v into the checksum.
func (c Checksum) AddUint64(v uint64) Checksum {
	for i := 0; i < 8; i++ {
		c ^= Checksum(v & 0xff)
		c *= 1099511628211
		v >>= 8
	}
	return c
}

// AddBytes folds b into the checksum.
func (c Checksum) AddBytes(b []byte) Checksum {
	for _, x := range b {
		c ^= Checksum(x)
		c *= 1099511628211
	}
	return c
}

// AddString folds s into the checksum.
func (c Checksum) AddString(s string) Checksum {
	for i := 0; i < len(s); i++ {
		c ^= Checksum(s[i])
		c *= 1099511628211
	}
	return c
}

// AddFloat folds the bit pattern of f into the checksum after rounding to
// 1e-9 to stay stable across compilation modes.
func (c Checksum) AddFloat(f float64) Checksum {
	scaled := int64(f * 1e9)
	return c.AddUint64(uint64(scaled))
}

// Value returns the checksum value.
func (c Checksum) Value() uint64 { return uint64(c) }

// FileRenderer is implemented by benchmarks whose workloads have a natural
// on-disk representation — the form in which the Alberta Workloads website
// distributes them (NED files, SGF games, EPD position lists, PDB
// structures, XML documents with stylesheets, C compilation units, puzzle
// seed files). RenderWorkload returns file name → content.
type FileRenderer interface {
	RenderWorkload(w Workload) (map[string][]byte, error)
}
