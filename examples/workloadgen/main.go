// Workloadgen: exercise every benchmark's workload generator — the paper's
// "researchers can generate as many workloads as they wish" — and verify
// the generated inputs by running them. Also demonstrates the OneFile tool
// on a generated multi-file program.
package main

import (
	"fmt"
	"log"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/gcc"
	"repro/internal/benchmarks/gcc/cc"
	"repro/internal/core"
	"repro/internal/onefile"
	"repro/internal/perf"
)

func main() {
	suite, err := benchmarks.Suite()
	if err != nil {
		log.Fatal(err)
	}
	const seed, n = 7, 2
	for _, b := range suite.Benchmarks() {
		gen, ok := b.(core.Generator)
		if !ok {
			// 500.perlbench_r: the paper found no way to build new
			// workloads without Perl's C extension modules.
			fmt.Printf("%-18s no generator (matches the paper)\n", b.Name())
			continue
		}
		ws, err := core.GenerateWorkloads(gen, seed, n)
		if err != nil {
			log.Fatalf("%s: %v", b.Name(), err)
		}
		for _, w := range ws {
			p := perf.New()
			res, err := core.Run(b, w, p)
			if err != nil {
				log.Fatalf("%s/%s: %v", b.Name(), w.WorkloadName(), err)
			}
			fmt.Printf("%-18s %-10s checksum=%016x\n", b.Name(), w.WorkloadName(), res.Checksum)
		}
	}

	// OneFile: combine a generated multi-file program into a single
	// compilation unit and prove it still compiles and runs.
	fmt.Println("\nOneFile demonstration:")
	files := gcc.GenerateMultiFile(3, seed)
	for _, f := range files {
		fmt.Printf("  input %s (%d bytes)\n", f.Name, len(f.Content))
	}
	combined, err := onefile.Combine(files)
	if err != nil {
		log.Fatal(err)
	}
	unit, err := cc.CompileSource(combined, cc.O2, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cc.Run(unit, cc.VMOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  combined unit: %d bytes, main returned %d, output checksum %x\n",
		len(combined), res.Return, res.Output)
}
