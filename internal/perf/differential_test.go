package perf_test

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/perf"
)

// TestSuiteDifferentialReference runs benchmark workloads on the optimized
// event path with the retained pre-optimization reference path attached in
// lockstep (perf.AttachReference), and requires the full perf.Reports —
// every method row, counter and coverage share, with only WallTime zeroed
// — to be bit-identical: the proof that the event-path rewrite changed no
// Report anywhere in the suite. A Measurement is derived from the Report,
// so this is at least as strong as comparing Measurements. The kernel runs
// once and feeds both paths, so the checksum needs no comparison.
//
// By default every benchmark runs its test and train workloads, which keeps
// the sweep affordable on one core. Set ALBERTA_DIFF_FULL=1 (CI does, in a
// dedicated step) to sweep all 15 benchmarks × every workload, including
// refrate/refspeed and the Alberta inputs.
func TestSuiteDifferentialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	full := os.Getenv("ALBERTA_DIFF_FULL") == "1"

	suite, err := benchmarks.Suite()
	if err != nil {
		t.Fatal(err)
	}
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
				reference := perf.AttachReference(p)
				if _, err := core.Run(b, w, p); err != nil {
					t.Fatal(err)
				}
				opt, ref := p.Report(), reference()
				opt.WallTime, ref.WallTime = 0, 0
				if !reflect.DeepEqual(opt, ref) {
					t.Errorf("optimized report diverges from reference\noptimized: %+v\nreference: %+v", opt, ref)
				}
			})
		}
	}
	if pairs == 0 {
		t.Fatal("no workloads selected")
	}
}
