// Command albertarun runs the characterization experiments and regenerates
// the paper's tables and figures:
//
//	albertarun -table1          # Table I: 2006→2017 evolution + modeled times
//	albertarun -table2          # Table II: workload-sensitivity summary
//	albertarun -fig1            # Figure 1 data: top-down per workload
//	albertarun -fig2            # Figure 2 data: method coverage per workload
//	albertarun -fdo             # FDO cross-validation study
//	albertarun -bench 557.xz_r  # restrict to one benchmark
//	albertarun -parallel 8      # bound the measurement worker pool
//	albertarun -table2 -json    # versioned report.Suite envelope on stdout
//	albertarun -cpuprofile cpu.pprof -memprofile mem.pprof
//	                            # pprof profiles of the run itself
//	albertarun -memstats        # allocation totals of the run on stderr
//
// With -json, the selected modes are emitted together as one
// report.Suite envelope (schema_version 2) — the same document the
// albertad service serves — with the raw measurements always included.
//
// A SIGINT cancels the run: outstanding measurements are abandoned and the
// command exits with the context error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"repro/internal/benchmarks"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fdo"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/optstudy"
)

// config carries every flag once; experiment funcs take it instead of a
// positional-argument list, so adding a mode no longer changes call sites.
type config struct {
	bench      string
	reps       int
	parallel   int
	failFast   bool
	jsonOut    bool
	verbose    bool
	clusterK   int
	sampled    bool
	interval   uint64
	phases     int
	cpuProfile string
	memProfile string
	memStats   bool

	// opts is the normalized option set shared by every mode; run() fills
	// it once via harness.Options.Normalize, the single place defaults
	// and validation live.
	opts harness.Options

	// results and sorted cache the suite run and its benchmark name order
	// so that several characterization modes requested together (e.g.
	// -table1 -table2 -fig1) share one run and one sort.
	results report.Results
	sorted  []string
}

// options assembles the raw (unnormalized) harness options from flags.
func (c *config) options() harness.Options {
	opts := harness.Options{
		Reps:            c.reps,
		Workers:         c.parallel,
		FailFast:        c.failFast,
		Sampled:         c.sampled,
		SampledInterval: c.interval,
		SampledPhases:   c.phases,
	}
	if c.verbose {
		opts.Progress = func(e harness.Event) {
			switch e.Kind {
			case harness.EventWorkloadDone:
				fmt.Fprintf(os.Stderr, "albertarun: [%d/%d] %s/%s\n",
					e.Completed, e.Total, e.Benchmark, e.Workload)
			case harness.EventWorkloadError:
				fmt.Fprintf(os.Stderr, "albertarun: [%d/%d] %s/%s FAILED: %v\n",
					e.Completed, e.Total, e.Benchmark, e.Workload, e.Err)
			}
		}
	}
	return opts
}

// suiteResults runs the characterization matrix once per invocation and
// caches it (and its sorted benchmark order) for subsequent modes.
func (c *config) suiteResults(ctx context.Context, suite *core.Suite) (report.Results, error) {
	if c.results == nil {
		res, err := harness.NewRunner(suite, c.opts).Run(ctx)
		if err != nil {
			return nil, err
		}
		c.results = res
		c.sorted = res.SortedBenchmarks()
	}
	return c.results, nil
}

// mode is one experiment: a flag name and its implementation. Modes run in
// table order; several may be selected in one invocation.
type mode struct {
	name string
	help string
	run  func(ctx context.Context, cfg *config, suite *core.Suite) error
	// section, when non-nil, marks the mode's section in the report.Suite
	// envelope; -json runs select their sections instead of calling run.
	// Modes without a section are inherently textual and reject -json.
	section func(*report.Sections)
}

var modes = []mode{
	{name: "list", help: "list benchmarks and workload inventories", run: runList},
	{name: "fdo", help: "run the FDO cross-validation study", run: runFDO},
	{name: "optstudy", help: "run the optimization-level variation study", run: runOptStudy},
	{name: "kernels", help: "rank benchmarks by how poorly a single-workload kernel represents them",
		run: runKernels, section: func(s *report.Sections) { s.Kernels = true }},
	{name: "report", help: "emit the per-benchmark report (execution time bars, top-down, hot methods)", run: runReport},
	{name: "table1", help: "reproduce Table I",
		run: runTable1, section: func(s *report.Sections) { s.Table1 = true }},
	{name: "table2", help: "reproduce Table II",
		run: runTable2, section: func(s *report.Sections) { s.Table2 = true }},
	{name: "fig1", help: "emit Figure 1 data (xalancbmk vs xz)",
		run: runFig1, section: func(s *report.Sections) { s.Figure1 = true }},
	{name: "fig2", help: "emit Figure 2 data (deepsjeng vs xz)",
		run: runFig2, section: func(s *report.Sections) { s.Figure2 = true }},
}

func main() {
	cfg := &config{}
	selected := make(map[string]*bool, len(modes))
	for _, m := range modes {
		selected[m.name] = flag.Bool(m.name, false, m.help)
	}
	def := harness.DefaultOptions()
	flag.IntVar(&cfg.clusterK, "cluster", 0, "cluster each benchmark's workloads into k groups (Berube workload reduction)")
	flag.StringVar(&cfg.bench, "bench", "", "restrict to one benchmark (e.g. 505.mcf_r)")
	flag.IntVar(&cfg.reps, "reps", def.Reps, "repetitions per workload (paper: 3)")
	flag.IntVar(&cfg.parallel, "parallel", runtime.GOMAXPROCS(0), "measurement worker pool size (1 = serial)")
	flag.BoolVar(&cfg.failFast, "failfast", false, "abort the whole run on the first measurement error")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit one versioned report.Suite envelope (schema_version 2) instead of text")
	flag.BoolVar(&cfg.verbose, "v", false, "report per-workload progress on stderr")
	flag.BoolVar(&cfg.sampled, "sampled", false, "phase-sampled simulation: cluster BBV intervals, simulate representatives, extrapolate probe counters")
	flag.Uint64Var(&cfg.interval, "interval", 0, "sampled-mode profiling interval in retired ops (0 = default)")
	flag.IntVar(&cfg.phases, "phases", 0, "sampled-mode phase cluster count k (0 = default)")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.BoolVar(&cfg.memStats, "memstats", false, "print the run's allocation totals (allocs, bytes, GC cycles) on stderr at exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "albertarun:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "albertarun:", err)
			os.Exit(1)
		}
	}

	var before runtime.MemStats
	if cfg.memStats {
		runtime.ReadMemStats(&before)
	}

	err := run(ctx, cfg, selected)

	if cfg.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if cfg.memStats {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		fmt.Fprintf(os.Stderr, "albertarun: allocs=%d bytes=%d gc_cycles=%d\n",
			after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, after.NumGC-before.NumGC)
	}
	if cfg.memProfile != "" {
		if werr := writeMemProfile(cfg.memProfile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "albertarun:", err)
		os.Exit(1)
	}
}

// writeMemProfile captures the heap at exit, after a GC so the profile
// reflects live objects rather than collection timing.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func run(ctx context.Context, cfg *config, selected map[string]*bool) error {
	var err error
	if cfg.opts, err = cfg.options().Normalize(); err != nil {
		return err
	}

	var active []mode
	for _, m := range modes {
		if *selected[m.name] {
			active = append(active, m)
		}
	}
	if cfg.clusterK > 0 {
		active = append(active, mode{name: "cluster", run: runCluster})
	}
	if len(active) == 0 {
		active = []mode{{name: "table2", run: runTable2,
			section: func(s *report.Sections) { s.Table2 = true }}} // default action
	}

	suite, err := benchmarks.CharacterizedSuite()
	if err != nil {
		return err
	}
	if cfg.bench != "" {
		b, ok := suite.Lookup(cfg.bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", cfg.bench)
		}
		if suite, err = core.NewSuite(b); err != nil {
			return err
		}
	}

	if cfg.jsonOut {
		return runEnvelope(ctx, cfg, suite, active)
	}
	for _, m := range active {
		if err := m.run(ctx, cfg, suite); err != nil {
			return fmt.Errorf("-%s: %w", m.name, err)
		}
	}
	return nil
}

// runEnvelope is the -json path: the selected modes become sections of a
// single report.Suite envelope — the same schema_version 2 document the
// albertad service serves — with the raw measurements always included.
func runEnvelope(ctx context.Context, cfg *config, suite *core.Suite, active []mode) error {
	sections := report.Sections{Measurements: true}
	for _, m := range active {
		if m.section == nil {
			return fmt.Errorf("mode -%s has no JSON form", m.name)
		}
		m.section(&sections)
	}
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	env, err := report.Build(results, cfg.opts.ReportConfig(), report.BuildOptions{
		Sections:          sections,
		Figure1Benchmarks: pick(results, cfg.bench, "523.xalancbmk_r", "557.xz_r"),
		Figure2Benchmarks: pick(results, cfg.bench, "531.deepsjeng_r", "557.xz_r"),
	})
	if err != nil {
		return err
	}
	data, err := env.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

func runList(ctx context.Context, cfg *config, suite *core.Suite) error {
	full, err := benchmarks.Suite()
	if err != nil {
		return err
	}
	for _, b := range full.Benchmarks() {
		ws, err := b.Workloads()
		if err != nil {
			return err
		}
		counts := map[core.Kind]int{}
		for _, w := range ws {
			counts[w.WorkloadKind()]++
		}
		fmt.Printf("%-18s %-34s train=%d refrate=%d alberta=%d\n",
			b.Name(), b.Area(), counts[core.KindTrain], counts[core.KindRefrate], counts[core.KindAlberta])
	}
	return nil
}

func runFDO(ctx context.Context, cfg *config, suite *core.Suite) error {
	for _, p := range fdo.StudyPrograms() {
		cv, err := fdo.CrossValidate(p)
		if err != nil {
			return err
		}
		fmt.Print(fdo.FormatCrossValidation(cv))
		fmt.Println()
	}
	return nil
}

func runOptStudy(ctx context.Context, cfg *config, suite *core.Suite) error {
	rows, err := optstudy.Run(fdo.StudyPrograms())
	if err != nil {
		return err
	}
	fmt.Print(optstudy.Format(rows))
	return nil
}

func runKernels(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	rows, err := report.Kernels(results, cfg.sorted)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatKernelRows(rows))
	return nil
}

func runReport(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	for _, name := range cfg.sorted {
		fmt.Println(report.BenchmarkReport(name, results[name]))
	}
	return nil
}

func runCluster(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	for _, name := range cfg.sorted {
		ms := results[name]
		k := cfg.clusterK
		if k > len(ms) {
			k = len(ms)
		}
		sel, err := cluster.Select(ms, cluster.Options{K: k})
		if err != nil {
			return err
		}
		fmt.Print(cluster.FormatSelection(name, sel))
	}
	return nil
}

func runTable1(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatTableI(report.TableI(results)))
	fmt.Println()
	return nil
}

func runTable2(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	rows, err := report.TableII(results, cfg.sorted)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatTableII(rows))
	return nil
}

func runFig1(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	series, err := report.Figure1(results, pick(results, cfg.bench, "523.xalancbmk_r", "557.xz_r")...)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatFigure1(series))
	return nil
}

func runFig2(ctx context.Context, cfg *config, suite *core.Suite) error {
	results, err := cfg.suiteResults(ctx, suite)
	if err != nil {
		return err
	}
	series, err := report.Figure2(results, 6, pick(results, cfg.bench, "531.deepsjeng_r", "557.xz_r")...)
	if err != nil {
		return err
	}
	fmt.Print(report.FormatFigure2(series))
	return nil
}

// pick returns the figure benchmarks, honoring a -bench restriction.
func pick(results report.Results, bench string, defaults ...string) []string {
	if bench != "" {
		return []string{bench}
	}
	var out []string
	for _, d := range defaults {
		if _, ok := results[d]; ok {
			out = append(out, d)
		}
	}
	return out
}
