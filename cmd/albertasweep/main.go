// Command albertasweep runs workload-space sweeps: it mints N generated
// workloads per benchmark (Section IV's "as many as you need"), streams
// every cell through the parallel harness without retaining measurements,
// clusters the behaviour vectors, and selects the representative few with
// a quantified per-benchmark coverage loss.
//
//	albertasweep -n 100 -k 5                  # sweep every generator-capable benchmark
//	albertasweep -benches 505.mcf_r,557.xz_r  # restrict the sweep
//	albertasweep -features topdown            # O(1)-per-cell embedding
//	albertasweep -json                        # machine-readable sweep report
//	albertasweep -fdo                         # add the FDO hidden-learning study
//	                                          # over cluster-selected training sets
//
// The selection is deterministic: the same seed, plan and feature space
// select the same representatives regardless of -parallel, and the
// albertad service's POST /v1/sweeps path reports the identical reduction
// for the same request (both run internal/sweep).
//
// A SIGINT cancels the sweep: outstanding cells are abandoned and the
// command exits with the context error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro/internal/benchmarks"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fdo"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/sweep"
)

// config carries every flag once; the sweep stages take it instead of a
// positional-argument list (the albertarun pattern).
type config struct {
	benches     string
	n           int
	seed        int64
	k           int
	features    string
	clusterSeed int64
	reps        int
	parallel    int
	jsonOut     bool
	verbose     bool
	fdoStudy    bool

	// normalized state filled by run():
	swcfg sweep.Config
	opts  harness.Options
}

func main() {
	cfg := &config{}
	def := harness.DefaultOptions()
	flag.StringVar(&cfg.benches, "benches", "", "comma-separated benchmarks to sweep (default: every generator-capable benchmark)")
	flag.IntVar(&cfg.n, "n", 16, "generated workloads per benchmark")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generator seed")
	flag.IntVar(&cfg.k, "k", 3, "representatives to keep per benchmark")
	flag.StringVar(&cfg.features, "features", "combined", "cluster feature space: combined, topdown or coverage")
	flag.Int64Var(&cfg.clusterSeed, "cluster-seed", 0, "k-medoids initialization seed (0 = canonical)")
	flag.IntVar(&cfg.reps, "reps", def.Reps, "repetitions per workload")
	flag.IntVar(&cfg.parallel, "parallel", runtime.GOMAXPROCS(0), "measurement worker pool size (1 = serial)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the sweep report as JSON instead of text")
	flag.BoolVar(&cfg.verbose, "v", false, "report per-cell progress on stderr")
	flag.BoolVar(&cfg.fdoStudy, "fdo", false, "also run the FDO hidden-learning study on cluster-selected training sets (-n inputs, -k representatives)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "albertasweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg *config) error {
	feats, err := cluster.ParseFeatures(cfg.features)
	if err != nil {
		return err
	}
	suite, err := benchmarks.Suite()
	if err != nil {
		return err
	}
	var names []string
	if cfg.benches != "" {
		names = strings.Split(cfg.benches, ",")
	}
	cfg.swcfg, err = sweep.Config{
		Benchmarks:   names,
		PerBenchmark: cfg.n,
		Seed:         cfg.seed,
		K:            cfg.k,
		Features:     feats,
		ClusterSeed:  cfg.clusterSeed,
	}.Normalize(suite)
	if err != nil {
		return err
	}
	// A sweep reduction needs every cell, so the first failure aborts the
	// whole run rather than leaving a silently partial workload space.
	opts := harness.Options{Reps: cfg.reps, Workers: cfg.parallel, FailFast: true}
	if cfg.verbose {
		opts.Progress = func(e harness.Event) {
			switch e.Kind {
			case harness.EventWorkloadDone:
				fmt.Fprintf(os.Stderr, "albertasweep: [%d/%d] %s/%s\n",
					e.Completed, e.Total, e.Benchmark, e.Workload)
			case harness.EventWorkloadError:
				fmt.Fprintf(os.Stderr, "albertasweep: [%d/%d] %s/%s FAILED: %v\n",
					e.Completed, e.Total, e.Benchmark, e.Workload, e.Err)
			}
		}
	}
	if cfg.opts, err = opts.Normalize(); err != nil {
		return err
	}

	rep, err := runSweep(ctx, cfg, suite)
	if err != nil {
		return err
	}
	if cfg.fdoStudy {
		if rep.FDO, err = runFDO(cfg); err != nil {
			return err
		}
	}

	if cfg.jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	fmt.Print(sweep.Format(rep))
	return nil
}

// runSweep streams the plan through the harness: each completed cell's
// Measurement is compacted into the accumulator and released, so the
// sweep holds O(workers) Measurements however many cells it has.
func runSweep(ctx context.Context, cfg *config, suite *core.Suite) (*sweep.Report, error) {
	units, err := sweep.Plan(suite, cfg.swcfg)
	if err != nil {
		return nil, err
	}
	acc := sweep.NewAccumulator(cfg.swcfg)
	err = harness.NewPlanRunner(units, cfg.opts).Stream(ctx, func(c harness.Cell, m report.Measurement) error {
		acc.Add(c.Index, m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acc.Report(cfg.opts.ReportConfig())
}

// runFDO runs the at-scale hidden-learning study on every bundled study
// program, training on cluster-selected representative inputs.
func runFDO(cfg *config) ([]fdo.ScaleStudy, error) {
	var out []fdo.ScaleStudy
	for _, p := range fdo.StudyPrograms() {
		st, err := fdo.ScaleCrossValidate(p, fdo.ScaleConfig{
			Seed:        cfg.swcfg.Seed,
			N:           cfg.swcfg.PerBenchmark,
			K:           cfg.swcfg.K,
			Features:    cfg.swcfg.Features,
			ClusterSeed: cfg.swcfg.ClusterSeed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}
