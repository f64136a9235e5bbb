package benchmarks

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// generatorBenchmarks returns every generator-capable benchmark of the
// full suite (all but perlbench, matching the paper).
func generatorBenchmarks(t *testing.T) []core.Benchmark {
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
		ws, err := b.(core.Generator).GenerateWorkloads(seed, n)
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
		short, err := gen.GenerateWorkloads(seed, 2)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		long, err := gen.GenerateWorkloads(seed, 5)
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
		a, err := gen.GenerateWorkloads(seed, n)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		c, err := gen.GenerateWorkloads(seed, n)
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
		ra, err := b.Run(a[0], pa)
		if err != nil {
			t.Fatalf("%s/%s: %v", b.Name(), a[0].WorkloadName(), err)
		}
		pc := perf.New()
		rc, err := b.Run(c[0], pc)
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
		ws, err := b.(core.Generator).GenerateWorkloads(9, 3)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		got, err := core.ResolveWorkload(b, ws[2].WorkloadName())
		if err != nil {
			t.Fatalf("%s: resolve %s: %v", b.Name(), ws[2].WorkloadName(), err)
		}
		if !reflect.DeepEqual(got, ws[2]) {
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
