// Quickstart: run one benchmark with its SPEC-style and Alberta workloads
// and print the modeled top-down breakdown for each — the minimal "aha" of
// the library: the same program behaves differently under different
// workloads, and the Alberta workloads expose that spread.
package main

import (
	"fmt"
	"log"

	"repro/internal/benchmarks/xz"
	"repro/internal/core"
	"repro/internal/perf"
)

func main() {
	bench := xz.New()
	workloads, err := core.MeasurementWorkloads(bench)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s — %s\n", bench.Name(), bench.Area())
	fmt.Printf("%-24s %-8s %10s | %8s %8s %8s %8s\n",
		"workload", "kind", "cycles", "front", "back", "badspec", "retire")
	for _, w := range workloads {
		p := perf.New()
		res, err := core.Run(bench, w, p)
		if err != nil {
			log.Fatalf("%s: %v", w.WorkloadName(), err)
		}
		rep := p.Report()
		td := rep.TopDown
		fmt.Printf("%-24s %-8s %10d | %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			w.WorkloadName(), w.WorkloadKind(), rep.Cycles,
			td.FrontEnd*100, td.BackEnd*100, td.BadSpec*100, td.Retiring*100)
		_ = res
	}

	// Generate two fresh workloads — the capability the Alberta Workloads
	// exist to provide.
	fmt.Println("\nfreshly generated workloads (seed 42):")
	ws, err := core.GenerateWorkloads(bench, 42, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range ws {
		p := perf.New()
		res, err := core.Run(bench, w, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s checksum=%016x cycles=%d\n",
			w.WorkloadName(), res.Checksum, p.Report().Cycles)
	}
}
