// Command albertagen exercises the workload generators: for each benchmark
// that can procedurally create workloads (every one except 500.perlbench_r,
// matching the paper), it generates n fresh workloads from a seed and
// verifies they run. Generated names carry their provenance —
// core.GeneratedName(seed, i) — so any consumer can regenerate workload i
// from the name alone.
//
//	albertagen -bench 505.mcf_r -n 5 -seed 42
//	albertagen -all -n 2
//	albertagen -all -json           # versioned generation manifest (implies -verify)
//	albertagen -bench 557.xz_r -out ./workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// config carries every flag once; the generation stages take it instead
// of a positional-argument list (the albertarun pattern).
type config struct {
	bench   string
	all     bool
	n       int
	seed    int64
	verify  bool
	jsonOut bool
	outDir  string
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.bench, "bench", "", "benchmark to generate workloads for")
	flag.BoolVar(&cfg.all, "all", false, "generate for every benchmark (non-generators are reported, not failed)")
	flag.IntVar(&cfg.n, "n", 3, "workloads to generate")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.BoolVar(&cfg.verify, "verify", true, "run each generated workload to verify it")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit a versioned generation manifest as JSON (implies -verify)")
	flag.StringVar(&cfg.outDir, "out", "", "write workloads with a natural file format to this directory")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "albertagen:", err)
		os.Exit(1)
	}
}

// Manifest is the machine-readable record of one generation run: enough
// to reproduce it (seed, n) and to check a later regeneration against it
// (each workload's verify checksum). The schema version is the report
// envelope's — the manifest is part of the same versioned surface.
type Manifest struct {
	SchemaVersion int             `json:"schema_version"`
	Seed          int64           `json:"seed"`
	N             int             `json:"n"`
	Benchmarks    []BenchManifest `json:"benchmarks"`
}

// BenchManifest is one benchmark's slice of the manifest. Generator is
// false for benchmarks that cannot generate (500.perlbench_r, matching
// the paper's missing Alberta workloads); their Workloads list is empty.
type BenchManifest struct {
	Benchmark string             `json:"benchmark"`
	Generator bool               `json:"generator"`
	Workloads []WorkloadManifest `json:"workloads,omitempty"`
}

// WorkloadManifest is one generated workload: its provenance-carrying
// name plus, when verified, the execution checksum and modeled cycles —
// the facts a regeneration must reproduce bit-identically.
type WorkloadManifest struct {
	Name     string    `json:"name"`
	Kind     core.Kind `json:"kind"`
	Verified bool      `json:"verified"`
	Checksum uint64    `json:"checksum,omitempty"`
	Cycles   uint64    `json:"cycles,omitempty"`
	// Files is the number of natural-format files written under -out.
	Files int `json:"files,omitempty"`
}

// run resolves the target benchmarks, generates, then dispatches on the
// output mode: JSON manifest or text listing.
func run(cfg *config) error {
	if cfg.n < 1 {
		return fmt.Errorf("-n must be >= 1 (got %d)", cfg.n)
	}
	if cfg.jsonOut {
		cfg.verify = true // a manifest without checksums pins nothing
	}
	suite, err := benchmarks.Suite()
	if err != nil {
		return err
	}
	targets, err := resolveTargets(cfg, suite)
	if err != nil {
		return err
	}
	man, err := generate(cfg, targets)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		return emitJSON(man)
	}
	return emitText(man)
}

// resolveTargets picks the benchmarks to generate for. -all includes
// non-generators (reported as such); -bench requires one.
func resolveTargets(cfg *config, suite *core.Suite) ([]core.Benchmark, error) {
	if cfg.all {
		return suite.Benchmarks(), nil
	}
	if cfg.bench == "" {
		return nil, fmt.Errorf("pass -bench <name> or -all")
	}
	b, ok := suite.Lookup(cfg.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", cfg.bench)
	}
	return []core.Benchmark{b}, nil
}

// generate mints cfg.n workloads per generator-capable target and fills
// the manifest, verifying and writing files as configured.
func generate(cfg *config, targets []core.Benchmark) (*Manifest, error) {
	man := &Manifest{SchemaVersion: report.SchemaVersion, Seed: cfg.seed, N: cfg.n}
	for _, b := range targets {
		bm := BenchManifest{Benchmark: b.Name()}
		gen, ok := b.(core.Generator)
		if ok {
			bm.Generator = true
			ws, err := core.GenerateWorkloads(gen, cfg.seed, cfg.n)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name(), err)
			}
			for _, w := range ws {
				wm, err := oneWorkload(cfg, b, w)
				if err != nil {
					return nil, err
				}
				bm.Workloads = append(bm.Workloads, wm)
			}
		}
		man.Benchmarks = append(man.Benchmarks, bm)
	}
	return man, nil
}

// oneWorkload verifies a single generated workload (when asked) and
// writes its natural file format (when asked).
func oneWorkload(cfg *config, b core.Benchmark, w core.Workload) (WorkloadManifest, error) {
	wm := WorkloadManifest{Name: w.WorkloadName(), Kind: w.WorkloadKind()}
	if cfg.verify {
		p := perf.New()
		res, err := core.Run(b, w, p)
		if err != nil {
			return wm, fmt.Errorf("%s/%s: %w", b.Name(), w.WorkloadName(), err)
		}
		wm.Verified = true
		wm.Checksum = res.Checksum
		wm.Cycles = p.Report().Cycles
	}
	if cfg.outDir != "" {
		n, err := writeWorkloadFiles(cfg.outDir, b, w)
		if err != nil {
			return wm, err
		}
		wm.Files = n
	}
	return wm, nil
}

func emitJSON(man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}

func emitText(man *Manifest) error {
	for _, bm := range man.Benchmarks {
		if !bm.Generator {
			fmt.Printf("%-18s cannot generate workloads (matches the paper: no Alberta workloads)\n", bm.Benchmark)
			continue
		}
		for _, wm := range bm.Workloads {
			line := fmt.Sprintf("%-18s %-12s", bm.Benchmark, wm.Name)
			if wm.Verified {
				line += fmt.Sprintf(" checksum=%016x cycles=%d", wm.Checksum, wm.Cycles)
			}
			if wm.Files > 0 {
				line += fmt.Sprintf(" files=%d", wm.Files)
			}
			fmt.Println(line)
		}
	}
	return nil
}

// writeWorkloadFiles renders the workload to disk when the benchmark has a
// natural file format (the form the Alberta Workloads site distributes),
// returning how many files it wrote. File names are written in sorted
// order so repeated runs touch the directory identically.
func writeWorkloadFiles(outDir string, b core.Benchmark, w core.Workload) (int, error) {
	renderer, ok := b.(core.FileRenderer)
	if !ok {
		return 0, nil
	}
	files, err := renderer.RenderWorkload(w)
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(outDir, b.Name(), w.WorkloadName())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), files[name], 0o644); err != nil {
			return 0, err
		}
	}
	return len(names), nil
}
