// Command albertabench measures the profiler event path and maintains the
// tracked benchmark baseline, BENCH_profiler.json. It times each event
// microbenchmark and then the full characterization suite:
//
//	albertabench -out BENCH_profiler.json     # regenerate the baseline (make bench)
//	albertabench -micro                       # microbenchmarks only, print to stdout
//	albertabench -check BENCH_profiler.json   # warn-only drift check (make bench-check)
//
// The suite section carries a serial row (workers=1) and, on multi-CPU
// machines, a parallel row (workers=GOMAXPROCS or -workers, the resolved
// count recorded in the row; a 1-CPU machine omits the row, and an
// explicit -workers below 2 is an error) — each with its
// allocation profile (allocs/bytes/GC cycles per characterization), which
// is deterministic and therefore reviewable the same way cycle counts are.
//
// The microbenchmark bodies mirror internal/perf's go-test benchmarks
// (BenchmarkLoadHit etc.); the committed JSON is the reviewable record of
// the event path's cost. Historical reference-path timings are frozen in
// DESIGN.md §10.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/perf"
)

// microBench is one event-path microbenchmark: body issues profiler events
// for i in [0, n).
type microBench struct {
	name string
	body func(p *perf.Profiler, n int)
}

// micros mirrors internal/perf's benchmark suite. Each entry represents the
// event shape a converted kernel inner loop issues.
var micros = []microBench{
	{"load_hit", func(p *perf.Profiler, n int) {
		for i := 0; i < n; i++ {
			p.Load(uint64(i&511) * 8)
		}
	}},
	{"load_stream", func(p *perf.Profiler, n int) {
		for i := 0; i < n; i++ {
			p.Load(uint64(i) * 8 % (64 << 20))
		}
	}},
	{"store", func(p *perf.Profiler, n int) {
		for i := 0; i < n; i++ {
			p.Store(uint64(i&511) * 8)
		}
	}},
	{"branch", func(p *perf.Profiler, n int) {
		for i := 0; i < n; i++ {
			p.OpsBranch(8, 3, i&7 != 0)
		}
	}},
	{"load_range", func(p *perf.Profiler, n int) {
		for i := 0; i < n; i++ {
			p.LoadRange(uint64(i)*512%(16<<20), 8, 64)
		}
	}},
	{"load_store", func(p *perf.Profiler, n int) {
		for i := 0; i < n; i++ {
			p.LoadStore(uint64(i&4095) * 16)
		}
	}},
}

// MicroResult is one microbenchmark row of the baseline.
type MicroResult struct {
	Name       string  `json:"name"`
	NsPerOpOpt float64 `json:"ns_per_op_opt"`
}

// SuiteResult is one full-suite row: wall clock plus the allocation
// profile (heap-allocation counts are deterministic, so they are part of
// the reviewable record the same way cycles are).
type SuiteResult struct {
	// Workers is the actual worker count the row ran with (the parallel
	// row records the resolved GOMAXPROCS, not a symbolic "all").
	Workers        int     `json:"workers"`
	WallSecondsOpt float64 `json:"wall_seconds_opt"`
	// AllocsPerSuite / BytesPerSuite / GCCycles are runtime.MemStats deltas
	// (Mallocs, TotalAlloc, NumGC) over one characterization of the whole
	// suite.
	AllocsPerSuite uint64 `json:"allocs_per_suite"`
	BytesPerSuite  uint64 `json:"bytes_per_suite"`
	GCCycles       uint32 `json:"gc_cycles"`
}

// BenchResult is one per-benchmark row: wall clock and allocation profile
// of a single optimized, serial characterization of that benchmark's
// measurement workloads. Unlike the suite rows it covers all benchmarks,
// including perlbench (which the characterized suite excludes for having no
// Alberta workloads), so engine-level speedups are visible per benchmark.
type BenchResult struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	Bytes       uint64  `json:"bytes"`
}

// Baseline is the schema of BENCH_profiler.json.
type Baseline struct {
	Go         string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Micro      []MicroResult `json:"micro"`
	// Suite is the serial row (Workers = 1); SuiteParallel runs the same
	// matrix with a worker pool (≥ 2 workers by definition — on a 1-CPU
	// machine the row is omitted rather than recorded as a misleading
	// "parallel" run with one worker).
	Suite         *SuiteResult `json:"suite,omitempty"`
	SuiteParallel *SuiteResult `json:"suite_parallel,omitempty"`
	// PerBench breaks the optimized serial pass down by benchmark.
	PerBench []BenchResult `json:"per_bench,omitempty"`
}

// measure times one micro body via the testing package's calibration loop.
func measure(mb microBench) float64 {
	res := testing.Benchmark(func(b *testing.B) {
		p := perf.New()
		p.Enter("bench")
		b.ResetTimer()
		mb.body(p, b.N)
	})
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// suitePass is one timed characterization of the whole suite.
type suitePass struct {
	wall   float64
	allocs uint64
	bytes  uint64
	gc     uint32
}

// runSuite times one full characterization run (reps=1, the albertarun
// defaults apart from repetitions) and captures the allocation delta
// around it. A forced GC before the pass keeps the NumGC delta from
// charging a previous pass's leftover heap to this one.
func runSuite(workers int) (suitePass, error) {
	suite, err := benchmarks.CharacterizedSuite()
	if err != nil {
		return suitePass{}, err
	}
	opts := harness.Options{Reps: 1, Workers: workers}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := harness.RunSuite(context.Background(), suite, opts); err != nil {
		return suitePass{}, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return suitePass{
		wall:   wall,
		allocs: after.Mallocs - before.Mallocs,
		bytes:  after.TotalAlloc - before.TotalAlloc,
		gc:     after.NumGC - before.NumGC,
	}, nil
}

// measureSuite builds one baseline row: minimum wall over suiteCount
// passes (noise only inflates), allocation profile from the first pass
// (allocation counts are deterministic).
func measureSuite(workers, suiteCount int) (*SuiteResult, error) {
	row := &SuiteResult{Workers: workers}
	best := math.Inf(1)
	for i := 0; i < suiteCount; i++ {
		fmt.Fprintf(os.Stderr, "albertabench: suite[workers=%d] pass %d/%d...\n", workers, i+1, suiteCount)
		o, err := runSuite(workers)
		if err != nil {
			return nil, err
		}
		best = math.Min(best, o.wall)
		if i == 0 {
			row.AllocsPerSuite, row.BytesPerSuite, row.GCCycles = o.allocs, o.bytes, o.gc
		}
	}
	row.WallSecondsOpt = round2(best)
	fmt.Fprintf(os.Stderr, "albertabench: suite[workers=%d] %.1fs   %d allocs / %d bytes / %d GCs\n",
		workers, best, row.AllocsPerSuite, row.BytesPerSuite, row.GCCycles)
	return row, nil
}

// measurePerBench times one optimized serial characterization of each
// benchmark's measurement workloads, with the allocation delta captured
// around it (a forced GC first, as in runSuite). Minimum wall over
// benchCount passes; allocation profile from the first pass. A non-nil
// only set restricts the sweep to the named benchmarks.
func measurePerBench(benchCount int, only map[string]bool) ([]BenchResult, error) {
	suite, err := benchmarks.Suite()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var rows []BenchResult
	for _, b := range suite.Benchmarks() {
		if only != nil && !only[b.Name()] {
			continue
		}
		ws, err := core.MeasurementWorkloads(b)
		if err != nil {
			return nil, err
		}
		row := BenchResult{Name: b.Name(), WallSeconds: math.Inf(1)}
		for pass := 0; pass < benchCount; pass++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for _, w := range ws {
				if _, err := harness.RunWorkload(ctx, b, w, harness.Options{Reps: 1}); err != nil {
					return nil, err
				}
			}
			wall := time.Since(start).Seconds()
			runtime.ReadMemStats(&after)
			row.WallSeconds = math.Min(row.WallSeconds, wall)
			if pass == 0 {
				row.Allocs = after.Mallocs - before.Mallocs
				row.Bytes = after.TotalAlloc - before.TotalAlloc
			}
		}
		row.WallSeconds = round2(row.WallSeconds)
		fmt.Fprintf(os.Stderr, "albertabench: per_bench %-18s %6.2fs   %d allocs / %d bytes\n",
			row.Name, row.WallSeconds, row.Allocs, row.Bytes)
		rows = append(rows, row)
	}
	return rows, nil
}

func main() {
	out := flag.String("out", "", "write the baseline JSON to this file (stdout when empty)")
	microOnly := flag.Bool("micro", false, "skip the full-suite wall-clock comparison")
	suiteCount := flag.Int("suitecount", 3, "suite timing passes; the minimum is recorded")
	workers := flag.Int("workers", 0, "worker count for the parallel suite row (0 = GOMAXPROCS; explicit values below 2 are an error)")
	check := flag.String("check", "", "re-run the microbenchmarks and compare against this baseline JSON (warn-only)")
	budget := flag.String("budget", "", "re-time selected benchmarks and compare against this baseline's per_bench rows (warn-only)")
	benches := flag.String("benches", "500.perlbench_r,502.gcc_r", "comma-separated benchmark names for -budget")
	tol := flag.Float64("tol", 0.5, "relative tolerance band for -check/-budget (0.5 = ±50%)")
	flag.Parse()

	var err error
	switch {
	case *check != "":
		err = runCheck(*check, *tol)
	case *budget != "":
		err = runBudget(*budget, *tol, *benches)
	default:
		err = run(*out, *microOnly, *suiteCount, *workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "albertabench:", err)
		os.Exit(1)
	}
}

// measureMicros times the microbenchmark set.
func measureMicros() []MicroResult {
	var out []MicroResult
	for _, mb := range micros {
		ns := measure(mb)
		out = append(out, MicroResult{Name: mb.name, NsPerOpOpt: round2(ns)})
		fmt.Fprintf(os.Stderr, "albertabench: %-12s %8.2f ns/op\n", mb.name, ns)
	}
	return out
}

func run(out string, microOnly bool, suiteCount, workers int) error {
	// A "parallel" row with one worker is a serial run wearing the wrong
	// label — an explicit request for it is an error, and a 1-CPU machine
	// omits the row instead of recording it.
	if workers != 0 && workers < 2 {
		return fmt.Errorf("-workers %d: a parallel suite row needs at least 2 workers", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	base := Baseline{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	base.Micro = measureMicros()

	if !microOnly {
		// Keep the minimum over passes: wall-clock noise only ever inflates
		// a measurement, so the minimum is the noise-robust estimator.
		var err error
		if base.Suite, err = measureSuite(1, suiteCount); err != nil {
			return err
		}
		if workers >= 2 {
			if base.SuiteParallel, err = measureSuite(workers, suiteCount); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(os.Stderr, "albertabench: 1-CPU machine: omitting the parallel suite row")
		}
		if base.PerBench, err = measurePerBench(2, nil); err != nil {
			return err
		}
	}

	return writeBaseline(base, out)
}

// writeBaseline serializes a baseline to out, or stdout when out is empty.
func writeBaseline(base Baseline, out string) error {
	doc, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	return os.WriteFile(out, doc, 0o644)
}

// runCheck re-times the microbenchmarks and compares them against the
// committed baseline within a relative tolerance band. It never fails the
// build on a timing deviation — wall-clock on shared CI runners is too noisy
// for a hard gate — it only warns, so regressions are visible in the log
// while `make bench` remains the tool that re-records the baseline.
// Structural drift (a micro added or removed without regenerating the
// baseline) is a real error.
func runCheck(path string, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	recorded := map[string]MicroResult{}
	for _, m := range base.Micro {
		recorded[m.Name] = m
	}
	fresh := measureMicros()
	if len(fresh) != len(base.Micro) {
		return fmt.Errorf("baseline %s has %d micros, binary has %d: regenerate with make bench", path, len(base.Micro), len(fresh))
	}
	warns := 0
	for _, f := range fresh {
		r, ok := recorded[f.Name]
		if !ok {
			return fmt.Errorf("micro %q missing from baseline %s: regenerate with make bench", f.Name, path)
		}
		if r.NsPerOpOpt <= 0 {
			continue
		}
		if dev := f.NsPerOpOpt/r.NsPerOpOpt - 1; dev > tol || dev < -tol {
			warns++
			fmt.Fprintf(os.Stderr, "albertabench: WARN %s drifted %+.0f%% (baseline %.2f ns/op, now %.2f ns/op, band ±%.0f%%)\n",
				f.Name, dev*100, r.NsPerOpOpt, f.NsPerOpOpt, tol*100)
		}
	}
	if warns == 0 {
		fmt.Fprintf(os.Stderr, "albertabench: all %d micros within ±%.0f%% of %s\n", len(fresh), tol*100, path)
	} else {
		fmt.Fprintf(os.Stderr, "albertabench: %d timing(s) outside the band — warn-only; run `make bench` to re-record\n", warns)
	}
	return nil
}

// runBudget re-times the named benchmarks' measurement workloads and
// compares wall clock against the baseline's per_bench rows. Like -check
// it is warn-only for timing — the interpreter-engine budgets (perlbench,
// gcc after bytecode compilation) are asserted visibly without letting CI
// runner noise fail the build — but a requested benchmark missing from the
// baseline is structural drift and a real error.
func runBudget(path string, tol float64, benches string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	recorded := map[string]BenchResult{}
	for _, r := range base.PerBench {
		recorded[r.Name] = r
	}
	only := map[string]bool{}
	for _, name := range strings.Split(benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := recorded[name]; !ok {
			return fmt.Errorf("benchmark %q has no per_bench row in %s: regenerate with make bench", name, path)
		}
		only[name] = true
	}
	if len(only) == 0 {
		return fmt.Errorf("-budget requires at least one benchmark name in -benches")
	}
	fresh, err := measurePerBench(1, only)
	if err != nil {
		return err
	}
	warns := 0
	for _, f := range fresh {
		r := recorded[f.Name]
		if r.WallSeconds <= 0 {
			continue
		}
		if dev := f.WallSeconds/r.WallSeconds - 1; dev > tol {
			warns++
			fmt.Fprintf(os.Stderr, "albertabench: WARN %s over budget %+.0f%% (baseline %.2fs, now %.2fs, band +%.0f%%)\n",
				f.Name, dev*100, r.WallSeconds, f.WallSeconds, tol*100)
		}
	}
	if warns == 0 {
		fmt.Fprintf(os.Stderr, "albertabench: all %d benchmark(s) within +%.0f%% of %s budgets\n", len(fresh), tol*100, path)
	} else {
		fmt.Fprintf(os.Stderr, "albertabench: %d benchmark(s) over budget — warn-only; run `make bench` to re-record\n", warns)
	}
	return nil
}

// round2 keeps the committed baseline diffable: two decimals are plenty for
// ns/op and seconds alike.
func round2(v float64) float64 {
	if v < 0 {
		return -round2(-v)
	}
	return float64(int64(v*100+0.5)) / 100
}
