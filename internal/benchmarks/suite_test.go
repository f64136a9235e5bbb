package benchmarks

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("suite has %d benchmarks, want 17", len(all))
	}
	if len(Int()) != 10 {
		t.Errorf("INT suite = %d, want 10", len(Int()))
	}
	if len(FP()) != 7 {
		t.Errorf("FP suite = %d, want 7", len(FP()))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name()] {
			t.Errorf("duplicate benchmark %s", b.Name())
		}
		seen[b.Name()] = true
	}
}

func TestCharacterizedSuiteExcludesPerlbench(t *testing.T) {
	s, err := CharacterizedSuite()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("500.perlbench_r"); ok {
		t.Error("perlbench must not be in the characterized suite")
	}
	if s.Len() != 16 {
		t.Errorf("characterized suite = %d, want 16", s.Len())
	}
}

// TestAllButOneHaveAlbertaWorkloads verifies the paper's headline claim:
// "The Alberta Workloads provide new workloads to all but one ...
// 500.perlbench_r" of the INT suite, and to the covered FP benchmarks.
func TestAllButOneHaveAlbertaWorkloads(t *testing.T) {
	for _, b := range All() {
		ws, err := b.Workloads()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		alberta := 0
		for _, w := range ws {
			if w.WorkloadKind() == core.KindAlberta {
				alberta++
			}
		}
		if b.Name() == "500.perlbench_r" {
			if alberta != 0 {
				t.Errorf("perlbench has %d Alberta workloads, want 0", alberta)
			}
			if _, isGen := b.(core.Generator); isGen {
				t.Error("perlbench must not be a Generator")
			}
			continue
		}
		if alberta == 0 {
			t.Errorf("%s has no Alberta workloads", b.Name())
		}
		if _, isGen := b.(core.Generator); !isGen {
			t.Errorf("%s should implement core.Generator", b.Name())
		}
	}
}

// TestEveryBenchmarkHasSpecStyleInputs checks the SPEC inventory: test,
// train and refrate inputs, with test excluded from measurement.
func TestEveryBenchmarkHasSpecStyleInputs(t *testing.T) {
	for _, b := range All() {
		for _, name := range []string{"test", "train", "refrate"} {
			if _, err := core.FindWorkload(b, name); err != nil {
				t.Errorf("%s: missing %s workload: %v", b.Name(), name, err)
			}
		}
	}
}

// TestEveryBenchmarkRunsDeterministically runs each test workload twice and
// compares checksums and modeled cycles — the property the entire Table II
// pipeline depends on.
func TestEveryBenchmarkRunsDeterministically(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			w, err := core.FindWorkload(b, "test")
			if err != nil {
				t.Fatal(err)
			}
			run := func() (uint64, uint64) {
				p := perf.New()
				res, err := core.Run(b, w, p)
				if err != nil {
					t.Fatal(err)
				}
				return res.Checksum, p.Report().Cycles
			}
			c1, cy1 := run()
			c2, cy2 := run()
			if c1 != c2 {
				t.Errorf("checksum differs: %x vs %x", c1, c2)
			}
			if cy1 != cy2 {
				t.Errorf("modeled cycles differ: %d vs %d", cy1, cy2)
			}
			if c1 == 0 || cy1 == 0 {
				t.Errorf("degenerate run: checksum=%x cycles=%d", c1, cy1)
			}
		})
	}
}

// TestWorkloadNamesUniquePerBenchmark guards the harness's name-based
// workload lookups.
func TestWorkloadNamesUniquePerBenchmark(t *testing.T) {
	for _, b := range All() {
		ws, err := b.Workloads()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, w := range ws {
			if seen[w.WorkloadName()] {
				t.Errorf("%s: duplicate workload name %q", b.Name(), w.WorkloadName())
			}
			seen[w.WorkloadName()] = true
		}
	}
}

// TestTrainAndRefrateDiffer ensures the two SPEC-style inputs are distinct
// measurements (different checksums or cycle counts).
func TestTrainAndRefrateDiffer(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			train, err := core.FindWorkload(b, "train")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.FindWorkload(b, "refrate")
			if err != nil {
				t.Fatal(err)
			}
			p1 := perf.New()
			r1, err := core.Run(b, train, p1)
			if err != nil {
				t.Fatal(err)
			}
			p2 := perf.New()
			r2, err := core.Run(b, ref, p2)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Checksum == r2.Checksum && p1.Report().Cycles == p2.Report().Cycles {
				t.Error("train and refrate produce identical measurements")
			}
			// refrate must be the bigger run.
			if p2.Report().Cycles <= p1.Report().Cycles {
				t.Errorf("refrate cycles (%d) should exceed train (%d)",
					p2.Report().Cycles, p1.Report().Cycles)
			}
		})
	}
}
