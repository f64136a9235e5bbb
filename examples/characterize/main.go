// Characterize: the Section V pipeline on a chosen slice of the suite —
// run every workload, summarize with the paper's statistics (Eqs. 1–5),
// and print a Table II fragment plus the Figure 1/2 data series.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
)

func main() {
	which := flag.String("benchmarks", "531.deepsjeng_r,557.xz_r",
		"comma-separated benchmark names to characterize")
	reps := flag.Int("reps", 3, "repetitions per workload (paper: 3)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "measurement worker pool size (1 = serial)")
	flag.Parse()

	full, err := benchmarks.Suite()
	if err != nil {
		log.Fatal(err)
	}
	var members []core.Benchmark
	var names []string
	for _, name := range strings.Split(*which, ",") {
		name = strings.TrimSpace(name)
		b, ok := full.Lookup(name)
		if !ok {
			log.Fatalf("unknown benchmark %q (see cmd/albertarun -list)", name)
		}
		members = append(members, b)
		names = append(names, name)
	}
	suite, err := core.NewSuite(members...)
	if err != nil {
		log.Fatal(err)
	}

	results, err := harness.RunSuite(context.Background(), suite,
		harness.Options{Reps: *reps, Workers: *parallel})
	if err != nil {
		log.Fatal(err)
	}

	rows, err := report.TableII(results, results.SortedBenchmarks())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.FormatTableII(rows))

	fig1, err := report.Figure1(results, names...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.FormatFigure1(fig1))

	fig2, err := report.Figure2(results, 5, names...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.FormatFigure2(fig2))
}
