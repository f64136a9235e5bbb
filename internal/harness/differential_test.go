package harness

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/perf"
)

// TestPreparedMatchesColdRuns is the prepared-workload acceptance sweep: a
// cell run through the harness — input prepared once, shared by several
// repetitions, profiler recycled with Reset between them — must produce a
// Measurement bit-identical (except WallSeconds) to a cold core.Run on a
// fresh profiler. Together with runWorkload's own cross-repetition
// determinism check this proves both prepared-vs-unprepared and
// recycled-vs-fresh equivalence for every benchmark.
//
// By default every benchmark runs its test and train workloads; set
// ALBERTA_DIFF_FULL=1 for the full matrix.
func TestPreparedMatchesColdRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	full := os.Getenv("ALBERTA_DIFF_FULL") == "1"

	suite, err := benchmarks.Suite()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pairs := 0
	for _, b := range suite.Benchmarks() {
		ws, err := b.Workloads()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if !full {
				if k := w.WorkloadKind(); k != core.KindTest && k != core.KindTrain {
					continue
				}
			}
			b, w := b, w
			pairs++
			t.Run(b.Name()+"/"+w.WorkloadName(), func(t *testing.T) {
				p := perf.New()
				res, err := core.Run(b, w, p)
				if err != nil {
					t.Fatal(err)
				}
				report := p.Report()

				// Three repetitions share one prepared workload and one
				// Reset-recycled profiler; runWorkload's internal
				// determinism check requires every repetition to reproduce
				// the first one's checksum, cycles and top-down split, so
				// this also proves recycled prepared state (bytecode
				// scratches, VM arenas, compiled sheets) is bit-stable
				// across ≥3 consecutive Executes.
				m, err := RunWorkload(ctx, b, w, Options{Reps: 3})
				if err != nil {
					t.Fatal(err)
				}
				if m.Checksum != res.Checksum {
					t.Errorf("checksum: prepared %x, cold %x", m.Checksum, res.Checksum)
				}
				if m.Cycles != report.Cycles {
					t.Errorf("cycles: prepared %d, cold %d", m.Cycles, report.Cycles)
				}
				if m.TopDown != report.TopDown {
					t.Errorf("topdown: prepared %+v, cold %+v", m.TopDown, report.TopDown)
				}
				if !reflect.DeepEqual(m.Coverage, report.Coverage) {
					t.Errorf("coverage: prepared %+v, cold %+v", m.Coverage, report.Coverage)
				}
			})
		}
	}
	if pairs == 0 {
		t.Fatal("no workloads selected")
	}
}

// TestCompiledEnginesRecycleFullReports drives the three bytecode-compiled
// interpreter benchmarks — perlbench, gcc and xalan — through one Prepare
// and four consecutive Executes each on fresh profilers, and
// requires the complete perf.Report (methods, coverage, cycles, top-down,
// every counter) to be bit-identical run over run. This is a stronger
// per-Execute assertion than the harness sweep above, which compares the
// aggregate Measurement.
func TestCompiledEnginesRecycleFullReports(t *testing.T) {
	suite, err := benchmarks.Suite()
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{
		"500.perlbench_r": true, "502.gcc_r": true, "523.xalancbmk_r": true,
	}
	seen := 0
	for _, b := range suite.Benchmarks() {
		if !targets[b.Name()] {
			continue
		}
		seen++
		ws, err := b.Workloads()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if w.WorkloadKind() != core.KindTest {
				continue
			}
			b, w := b, w
			t.Run(b.Name()+"/"+w.WorkloadName(), func(t *testing.T) {
				pw, err := b.Prepare(w)
				if err != nil {
					t.Fatal(err)
				}
				var first perf.Report
				var firstSum uint64
				for rep := 0; rep < 4; rep++ {
					p := perf.New()
					res, err := pw.Execute(p)
					if err != nil {
						t.Fatal(err)
					}
					rpt := p.Report()
					rpt.WallTime = 0
					rpt.Methods = append([]perf.MethodProfile(nil), rpt.Methods...)
					if rep == 0 {
						first, firstSum = rpt, res.Checksum
						continue
					}
					if res.Checksum != firstSum {
						t.Errorf("rep %d checksum %x != first %x", rep, res.Checksum, firstSum)
					}
					if !reflect.DeepEqual(rpt, first) {
						t.Errorf("rep %d full report diverges from first", rep)
					}
				}
			})
		}
	}
	if seen != len(targets) {
		t.Fatalf("found %d of %d compiled-engine benchmarks", seen, len(targets))
	}
}
