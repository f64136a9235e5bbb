// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md's experiment index):
//
//	BenchmarkTableI                  — SPEC 2006→2017 INT comparison
//	BenchmarkTableII                 — workload-sensitivity summary
//	BenchmarkFigure1                 — top-down per workload (xalancbmk, xz)
//	BenchmarkFigure2                 — method coverage per workload (deepsjeng, xz)
//	BenchmarkAblationLowMeanArtifact — the Section V-B μg(V) inflation
//	BenchmarkAblationCoverageOffset  — the Section V-C offset/threshold choices
//	BenchmarkFDOCrossValidation      — Section VII's FDO methodology study
//	BenchmarkWorkloadClustering      — Berube-style workload reduction [6]
//	BenchmarkOptLevelStudy           — optimization-level variation study
//	BenchmarkSingleWorkloads         — per-benchmark instrumented baselines
//
// Run with: go test -bench=. -benchtime=1x
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fdo"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/optstudy"
	"repro/internal/stats"
)

// benchOpts keeps regeneration runs affordable: one repetition (the modeled
// measurements are deterministic) and the full worker pool — results are
// bit-identical to a serial run except for WallSeconds, which no
// regeneration consumes.
func benchOpts() harness.Options {
	return harness.Options{Reps: 1, Workers: runtime.GOMAXPROCS(0)}
}

// runSubSuite measures the named benchmarks only.
func runSubSuite(b *testing.B, names ...string) report.Results {
	b.Helper()
	full, err := benchmarks.Suite()
	if err != nil {
		b.Fatal(err)
	}
	var members []core.Benchmark
	for _, n := range names {
		bench, ok := full.Lookup(n)
		if !ok {
			b.Fatalf("unknown benchmark %s", n)
		}
		members = append(members, bench)
	}
	sub, err := core.NewSuite(members...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := harness.RunSuite(context.Background(), sub, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableI regenerates Table I: the published 2006/2017 columns next
// to this reproduction's modeled refrate times for the INT suite.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var names []string
		for _, e := range report.PaperTableI {
			names = append(names, e.Name2017)
		}
		results := runSubSuite(b, names...)
		rows := report.TableI(results)
		if i == 0 {
			fmt.Println(report.FormatTableI(rows))
			var sum float64
			for _, r := range rows {
				sum += r.MeasuredS
			}
			b.ReportMetric(sum/float64(len(rows)), "avg-modeled-s")
		}
	}
}

// BenchmarkTableII regenerates the full Table II over every characterized
// benchmark (all but perlbench, as in the paper).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite, err := benchmarks.CharacterizedSuite()
		if err != nil {
			b.Fatal(err)
		}
		results, err := harness.RunSuite(context.Background(), suite, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows, err := report.TableII(results, results.SortedBenchmarks())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(report.FormatTableII(rows))
			for _, r := range rows {
				if r.Benchmark == "523.xalancbmk_r" {
					b.ReportMetric(r.TopDown.Score, "xalan-ugV")
				}
				if r.Benchmark == "557.xz_r" {
					b.ReportMetric(r.TopDown.Score, "xz-ugV")
				}
			}
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1: per-workload top-down stacked
// fractions for 523.xalancbmk_r (left) and 557.xz_r (right).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runSubSuite(b, "523.xalancbmk_r", "557.xz_r")
		series, err := report.Figure1(results, "523.xalancbmk_r", "557.xz_r")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(report.FormatFigure1(series))
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: per-workload function coverage for
// 531.deepsjeng_r (left) and 557.xz_r (right).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runSubSuite(b, "531.deepsjeng_r", "557.xz_r")
		series, err := report.Figure2(results, 6, "531.deepsjeng_r", "557.xz_r")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(report.FormatFigure2(series))
		}
	}
}

// BenchmarkAblationLowMeanArtifact reproduces the Section V-B caveat: lbm's
// near-zero bad-speculation category has a tiny geometric mean with a large
// geometric standard deviation, which inflates μg(V). The ablation reports
// the benchmark's μg(V) with all four categories against the score computed
// from the remaining three.
func BenchmarkAblationLowMeanArtifact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runSubSuite(b, "519.lbm_r")
		ms := results["519.lbm_r"]
		var obs []stats.TopDown
		for _, m := range ms {
			obs = append(obs, m.TopDown)
		}
		sum, err := stats.SummarizeTopDown(obs)
		if err != nil {
			b.Fatal(err)
		}
		withoutBadSpec, err := stats.VariationScore([]stats.CategorySummary{
			sum.FrontEnd, sum.BackEnd, sum.Retiring,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("Ablation A1 (lbm low-mean artifact):\n")
			fmt.Printf("  bad-spec: μg=%.4f%% σg=%.2f (tiny mean, large deviation)\n",
				sum.BadSpec.GeoMean*100, sum.BadSpec.GeoStd)
			fmt.Printf("  μg(V) with all 4 categories:    %8.2f\n", sum.Score)
			fmt.Printf("  μg(V) without the s category:   %8.2f\n\n", withoutBadSpec)
			b.ReportMetric(sum.Score, "ugV-4cat")
			b.ReportMetric(withoutBadSpec, "ugV-3cat")
			if sum.Score <= withoutBadSpec {
				b.Fatalf("artifact not reproduced: %v <= %v", sum.Score, withoutBadSpec)
			}
		}
	}
}

// BenchmarkAblationCoverageOffset reproduces the Section V-C design
// choices: the 0.05%% "others" threshold and the small offset added to
// every time fraction. It reports μg(M) for deepsjeng and xz under the
// paper's parameters and under ×10 variants.
func BenchmarkAblationCoverageOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runSubSuite(b, "531.deepsjeng_r", "557.xz_r")
		if i != 0 {
			continue
		}
		fmt.Println("Ablation A2 (coverage offset / threshold):")
		for _, name := range []string{"531.deepsjeng_r", "557.xz_r"} {
			var covs []stats.Coverage
			for _, m := range results[name] {
				covs = append(covs, m.Coverage)
			}
			for _, opt := range []struct {
				label string
				o     stats.CoverageOptions
			}{
				{"paper (thr=0.05%, off=1e-4)", stats.DefaultCoverageOptions()},
				{"thr x10", stats.CoverageOptions{OthersThreshold: 0.005, Offset: 0.0001}},
				{"offset x10", stats.CoverageOptions{OthersThreshold: 0.0005, Offset: 0.001}},
			} {
				sum, err := stats.SummarizeCoverage(covs, opt.o)
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("  %-16s %-28s μg(M) = %7.2f (%d methods)\n",
					name, opt.label, sum.Score, len(sum.Methods))
			}
		}
		fmt.Println()
	}
}

// BenchmarkFDOCrossValidation runs the Section VII study: FDO evaluated
// with held-out cross-validation versus the criticized self-trained
// methodology, over the bundled input-sensitive programs.
func BenchmarkFDOCrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range fdo.StudyPrograms() {
			cv, err := fdo.CrossValidate(p)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Print(fdo.FormatCrossValidation(cv))
				fmt.Println()
				b.ReportMetric(cv.GeoMeanSpeedup, p.Name+"-heldout-x")
				b.ReportMetric(cv.SelfGeoMeanSpeedup, p.Name+"-self-x")
			}
		}
	}
}

// BenchmarkSingleWorkloads provides per-benchmark micro baselines: the cost
// of one test-input execution of each benchmark under full instrumentation.
func BenchmarkSingleWorkloads(b *testing.B) {
	suite, err := benchmarks.Suite()
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range suite.Benchmarks() {
		bench := bench
		b.Run(bench.Name(), func(b *testing.B) {
			w, err := core.FindWorkload(bench, "test")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				m, err := harness.RunWorkload(context.Background(), bench, w, harness.Options{Reps: 1})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(m.Cycles), "modeled-cycles")
				}
			}
		})
	}
}

// BenchmarkWorkloadClustering runs the Berube-style workload reduction
// (Section VII / CGO'09 reference [6]): cluster each of a pair of
// benchmarks' workloads into three behaviour groups and report the
// representatives.
func BenchmarkWorkloadClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runSubSuite(b, "557.xz_r", "519.lbm_r")
		for _, name := range results.SortedBenchmarks() {
			ms := results[name]
			sel, err := cluster.Select(ms, cluster.Options{K: 3})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Print(cluster.FormatSelection(name, sel))
				b.ReportMetric(sel.Clustering.Cost, "cluster-cost-"+name)
			}
		}
		if i == 0 {
			fmt.Println()
		}
	}
}

// BenchmarkOptLevelStudy runs the optimization-level variation study
// distributed with the Alberta Workloads (branch prediction, cache/TLB and
// execution time across compiler configurations).
func BenchmarkOptLevelStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := optstudy.Run(fdo.StudyPrograms())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(optstudy.Format(rows))
		}
	}
}
