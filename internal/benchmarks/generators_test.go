package benchmarks

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// generatorBenchmarks returns every generator-capable benchmark of the
// full suite (all but perlbench, matching the paper).
func generatorBenchmarks(t testing.TB) []core.Benchmark {
	t.Helper()
	suite, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Benchmark
	for _, b := range suite.Benchmarks() {
		if _, ok := b.(core.Generator); ok {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		t.Fatal("no generator-capable benchmarks in the suite")
	}
	return out
}

// TestGeneratorProvenanceNames pins the core.Generator naming contract:
// workload i of a seed must be named core.GeneratedName(seed, i) and carry
// KindAlberta, so the name alone records how to regenerate the workload.
func TestGeneratorProvenanceNames(t *testing.T) {
	const seed, n = 77, 4
	for _, b := range generatorBenchmarks(t) {
		ws, err := core.GenerateWorkloads(b.(core.Generator), seed, n)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if len(ws) != n {
			t.Fatalf("%s: %d workloads, want %d", b.Name(), len(ws), n)
		}
		for i, w := range ws {
			if want := core.GeneratedName(seed, i); w.WorkloadName() != want {
				t.Errorf("%s: workload %d named %q, want %q", b.Name(), i, w.WorkloadName(), want)
			}
			if w.WorkloadKind() != core.KindAlberta {
				t.Errorf("%s/%s: kind %v, want alberta", b.Name(), w.WorkloadName(), w.WorkloadKind())
			}
		}
	}
}

// TestGeneratorPrefixStability pins the contract's prefix property: the
// i-th workload of a seed is the same whether generated as part of 2 or 5,
// so a workload's identity never depends on the sweep size that minted it.
func TestGeneratorPrefixStability(t *testing.T) {
	const seed = 31
	for _, b := range generatorBenchmarks(t) {
		gen := b.(core.Generator)
		short, err := core.GenerateWorkloads(gen, seed, 2)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		long, err := core.GenerateWorkloads(gen, seed, 5)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		for i := range short {
			if !reflect.DeepEqual(short[i], long[i]) {
				t.Errorf("%s: workload %d differs between n=2 and n=5 generations", b.Name(), i)
			}
		}
	}
}

// TestGeneratorSameSeedDeterminism proves same-seed generation is
// bit-identical across calls for every generator-capable benchmark: the
// workload values themselves (including any rendered file bytes) and the
// checksum + full profiler report of executing them.
func TestGeneratorSameSeedDeterminism(t *testing.T) {
	const seed, n = 42, 2
	for _, b := range generatorBenchmarks(t) {
		gen := b.(core.Generator)
		a, err := core.GenerateWorkloads(gen, seed, n)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		c, err := core.GenerateWorkloads(gen, seed, n)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !reflect.DeepEqual(a, c) {
			t.Errorf("%s: same-seed generations differ", b.Name())
		}
		if r, ok := b.(core.FileRenderer); ok {
			fa, err := r.RenderWorkload(a[0])
			if err != nil {
				t.Fatalf("%s: render: %v", b.Name(), err)
			}
			fc, err := r.RenderWorkload(c[0])
			if err != nil {
				t.Fatalf("%s: render: %v", b.Name(), err)
			}
			if !reflect.DeepEqual(fa, fc) {
				t.Errorf("%s: rendered workload bytes differ between same-seed generations", b.Name())
			}
		}
		// Execute the first workload of each generation: checksums and the
		// full modeled report must be bit-identical.
		pa := perf.New()
		ra, err := core.Run(b, a[0], pa)
		if err != nil {
			t.Fatalf("%s/%s: %v", b.Name(), a[0].WorkloadName(), err)
		}
		pc := perf.New()
		rc, err := core.Run(b, c[0], pc)
		if err != nil {
			t.Fatalf("%s/%s: %v", b.Name(), c[0].WorkloadName(), err)
		}
		if ra.Checksum != rc.Checksum {
			t.Errorf("%s: same-seed checksums differ: %016x vs %016x", b.Name(), ra.Checksum, rc.Checksum)
		}
		repA, repC := pa.Report(), pc.Report()
		repA.WallTime, repC.WallTime = 0, 0
		repA.Methods = append([]perf.MethodProfile(nil), repA.Methods...)
		repC.Methods = append([]perf.MethodProfile(nil), repC.Methods...)
		if !reflect.DeepEqual(repA, repC) {
			t.Errorf("%s: same-seed profiler reports differ", b.Name())
		}
	}
}

// TestResolveWorkloadRegenerates proves a generated workload can be
// reconstructed from its name alone — the property that lets sweep cells
// execute on remote workers that never saw the original generation call.
func TestResolveWorkloadRegenerates(t *testing.T) {
	for _, b := range generatorBenchmarks(t) {
		want, err := b.(core.Generator).GenerateWorkload(9, 2)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		got, err := core.ResolveWorkload(b, want.WorkloadName())
		if err != nil {
			t.Fatalf("%s: resolve %s: %v", b.Name(), want.WorkloadName(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resolved workload differs from the generated original", b.Name())
		}
		// Inventory names keep resolving through the same entry point.
		inv, err := b.Workloads()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.ResolveWorkload(b, inv[0].WorkloadName()); err != nil {
			t.Errorf("%s: inventory workload %q failed to resolve: %v", b.Name(), inv[0].WorkloadName(), err)
		}
		if _, err := core.ResolveWorkload(b, "no-such-workload"); err == nil {
			t.Errorf("%s: unknown name resolved", b.Name())
		}
	}
}

// TestInventoryNamesOutsideGeneratedNamespace pins the namespace split
// ResolveWorkload depends on: it resolves a generated name without
// building the inventory, so no inventory workload of any benchmark may
// carry a name ParseGeneratedName accepts.
func TestInventoryNamesOutsideGeneratedNamespace(t *testing.T) {
	for _, b := range All() {
		ws, err := b.Workloads()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		for _, w := range ws {
			if _, _, ok := core.ParseGeneratedName(w.WorkloadName()); ok {
				t.Errorf("%s: inventory workload %q is in the generated namespace", b.Name(), w.WorkloadName())
			}
		}
	}
}

// TestGeneratorDomainCorners checks every generator at the four corners
// of the generated domain: each workload generates, keeps its provenance
// name, and prepares; the (max seed, max index) workload also executes.
func TestGeneratorDomainCorners(t *testing.T) {
	const maxSeed, maxIndex = core.MaxGeneratedSeed, core.MaxGeneratedIndex
	corners := []struct {
		seed  int64
		index int
	}{{0, 0}, {0, maxIndex}, {maxSeed, 0}, {maxSeed, maxIndex}}
	for _, b := range generatorBenchmarks(t) {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			for _, c := range corners {
				w, err := b.(core.Generator).GenerateWorkload(c.seed, c.index)
				if err != nil {
					t.Fatalf("generate (%d, %d): %v", c.seed, c.index, err)
				}
				if want := core.GeneratedName(c.seed, c.index); w.WorkloadName() != want {
					t.Errorf("workload named %q, want %q", w.WorkloadName(), want)
				}
				pw, err := b.Prepare(w)
				if err != nil {
					t.Fatalf("prepare %s: %v", w.WorkloadName(), err)
				}
				if c.seed == maxSeed && c.index == maxIndex {
					if _, err := pw.Execute(nil); err != nil {
						t.Errorf("execute %s: %v", w.WorkloadName(), err)
					}
				}
			}
		})
	}
}

// cachedInventory serves a benchmark's inventory from memory. Rebuilding
// leela's or xalancbmk's inventory costs tens of milliseconds, which would
// leave a fuzzer little time for anything else.
type cachedInventory struct {
	core.Benchmark
	ws []core.Workload
}

func (c cachedInventory) Workloads() ([]core.Workload, error) { return c.ws, nil }

// cachedGenerator is a cachedInventory that keeps its benchmark's
// generator.
type cachedGenerator struct {
	cachedInventory
	core.Generator
}

// FuzzResolveWorkload drives provenance names from untrusted input (a
// worker's cell request) through ResolveWorkload over the real suite. It
// must never panic, and an accepted generated name must round-trip and
// resolve to exactly GenerateWorkload(seed, index).
func FuzzResolveWorkload(f *testing.F) {
	var bs []core.Benchmark
	for _, b := range All() {
		ws, err := b.Workloads()
		if err != nil {
			f.Fatal(err)
		}
		c := cachedInventory{Benchmark: b, ws: ws}
		if g, ok := b.(core.Generator); ok {
			bs = append(bs, cachedGenerator{c, g})
		} else {
			bs = append(bs, c)
		}
	}
	xalan := uint8(slices.IndexFunc(bs, func(b core.Benchmark) bool { return b.Name() == "523.xalancbmk_r" }))
	for _, name := range []string{"gen.s-7.1", "gen.s9223372036854775805.5", "gen.s1.2147483647", "gen.s01.2", "refrate"} {
		f.Add(xalan, name)
	}
	f.Fuzz(func(t *testing.T, benchIndex uint8, name string) {
		b := bs[int(benchIndex)%len(bs)]
		w, err := core.ResolveWorkload(b, name)
		seed, index, generated := core.ParseGeneratedName(name)
		gen, isGen := b.(core.Generator)
		if !generated || !isGen {
			if err == nil && w.WorkloadName() != name {
				t.Fatalf("%s: %q resolved to %q", b.Name(), name, w.WorkloadName())
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: generated name %q did not resolve: %v", b.Name(), name, err)
		}
		if core.GeneratedName(seed, index) != name {
			t.Fatalf("%q parsed to (%d, %d), which renders differently", name, seed, index)
		}
		want, err := gen.GenerateWorkload(seed, index)
		if err != nil {
			t.Fatalf("%s: GenerateWorkload(%d, %d): %v", b.Name(), seed, index, err)
		}
		if !reflect.DeepEqual(w, want) {
			t.Fatalf("%s: %q resolved to a workload other than GenerateWorkload(%d, %d)", b.Name(), name, seed, index)
		}
	})
}

// FuzzGenerateWorkload drives every generator over its whole domain,
// 0 <= seed <= MaxGeneratedSeed and 0 <= index <= MaxGeneratedIndex: a
// (seed, index) from a worker's cell request reaches a generator through
// its flight leader's resolution. Workload index of seed must generate
// without panicking, carry its provenance name and KindAlberta, and come
// out identical from a second call.
func FuzzGenerateWorkload(f *testing.F) {
	bs := generatorBenchmarks(f)
	for i := range bs {
		f.Add(uint8(i), uint32(0), uint32(0))
		f.Add(uint8(i), uint32(1), uint32(15))
		f.Add(uint8(i), uint32(core.MaxGeneratedSeed), uint32(core.MaxGeneratedIndex))
	}
	f.Fuzz(func(t *testing.T, benchIndex uint8, seed32, index32 uint32) {
		b := bs[int(benchIndex)%len(bs)]
		seed, index := int64(seed32), int(index32&core.MaxGeneratedIndex)
		gen := b.(core.Generator)
		w, err := gen.GenerateWorkload(seed, index)
		if err != nil {
			t.Fatalf("%s: GenerateWorkload(%d, %d): %v", b.Name(), seed, index, err)
		}
		if want := core.GeneratedName(seed, index); w.WorkloadName() != want || w.WorkloadKind() != core.KindAlberta {
			t.Fatalf("%s: workload (%d, %d) is %q of kind %v, want %q of kind alberta",
				b.Name(), seed, index, w.WorkloadName(), w.WorkloadKind(), want)
		}
		again, err := gen.GenerateWorkload(seed, index)
		if err != nil {
			t.Fatalf("%s: second GenerateWorkload(%d, %d): %v", b.Name(), seed, index, err)
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("%s: two generations of (%d, %d) differ", b.Name(), seed, index)
		}
	})
}
