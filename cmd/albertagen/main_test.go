package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks/exchange2"
	"repro/internal/core"
	"repro/internal/harness"
)

// TestManifestCyclesMatchHarness: the manifest's verify run must record
// the same exact cycles and checksum that a harness measurement of the
// same generated workload reports, so `albertagen -json` and `albertarun`
// agree on every workload they both name.
func TestManifestCyclesMatchHarness(t *testing.T) {
	b := exchange2.New()
	man, err := generate(&config{n: 1, seed: 7, verify: true}, []core.Benchmark{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Benchmarks) != 1 || len(man.Benchmarks[0].Workloads) != 1 {
		t.Fatalf("manifest = %+v, want one workload", man)
	}
	wm := man.Benchmarks[0].Workloads[0]
	if !wm.Verified || wm.Cycles == 0 {
		t.Fatalf("workload not verified: %+v", wm)
	}
	w, err := core.ResolveWorkload(b, wm.Name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := harness.RunWorkload(context.Background(), b, w, harness.Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wm.Cycles != m.Cycles {
		t.Errorf("manifest cycles %d, harness cycles %d", wm.Cycles, m.Cycles)
	}
	if wm.Checksum != m.Checksum {
		t.Errorf("manifest checksum %x, harness checksum %x", wm.Checksum, m.Checksum)
	}
}

// TestSeedOutsideDomainRejected: a seed outside the generated domain is
// an error before any generator runs, not a panic or a silently odd
// workload.
func TestSeedOutsideDomainRejected(t *testing.T) {
	for _, seed := range []int64{-1, core.MaxGeneratedSeed + 1} {
		cfg := &config{bench: "523.xalancbmk_r", n: 2, seed: seed}
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), "generated domain") {
			t.Errorf("-seed %d: err = %v, want a generated-domain error", seed, err)
		}
	}
}
