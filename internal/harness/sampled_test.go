package harness

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// TestSampledWithinTolerance is the differential validator behind `make
// diff-sampled`: for every benchmark × workload it measures the cell
// exactly and phase-sampled on the same prepared input and holds each of
// the 22 report counters to its density-tiered error budget
// (perf.DefaultTolerance). Architectural counters and the checksum must
// match exactly — sampling only ever extrapolates probe-derived counters.
//
// By default every benchmark runs its test and train workloads; set
// ALBERTA_DIFF_FULL=1 (CI does, in a dedicated step) for the full matrix
// including refrate/refspeed and the Alberta inputs.
func TestSampledWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	full := os.Getenv("ALBERTA_DIFF_FULL") == "1"

	suite, err := benchmarks.Suite()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tol := perf.DefaultTolerance()
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
				c, err := SampledDiff(ctx, b, w, Options{Reps: 1})
				if err != nil {
					t.Fatal(err)
				}
				et, st := c.Exact.Total, c.Sampled.Total
				if et.Ops != st.Ops || et.LongOps != st.LongOps ||
					et.Branches != st.Branches || et.Taken != st.Taken ||
					et.Loads != st.Loads || et.Stores != st.Stores {
					t.Errorf("architectural counters diverged:\nexact   %+v\nsampled %+v", et, st)
				}
				for _, v := range c.Diff.Violations(tol) {
					t.Errorf("counter %s: exact %.0f sampled %.0f rel %.4f exceeds tier budget %.2f (plan: %d/%d intervals live)",
						v.Name, v.Exact, v.Sampled, v.Rel, tol.For(v.Events),
						c.Plan.LiveIntervals(), c.Plan.Intervals())
				}
			})
		}
	}
	if pairs == 0 {
		t.Fatal("no workloads selected")
	}
}

// TestSampledRunsBitIdentical: two complete sampled harness measurements of
// the same cell — profile, plan, warm, measure, each from scratch — must
// agree on every Measurement field except WallSeconds. This pins the whole
// pipeline's determinism at the harness level: signatures, clustering,
// checkpoints and extrapolated folds.
func TestSampledRunsBitIdentical(t *testing.T) {
	ctx := context.Background()
	b, w := trainCell(t, "500.perlbench_r")
	opts := Options{Reps: 1, Sampled: true}
	m1, err := RunWorkload(ctx, b, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunWorkload(ctx, b, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Sampled || !m2.Sampled {
		t.Fatal("sampled measurements must be marked Sampled")
	}
	m1.WallSeconds, m2.WallSeconds = 0, 0
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("two sampled runs diverged:\nfirst  %+v\nsecond %+v", m1, m2)
	}
}

// trainCell returns the named suite benchmark and its train workload.
func trainCell(t *testing.T, name string) (core.Benchmark, core.Workload) {
	t.Helper()
	suite, err := benchmarks.Suite()
	if err != nil {
		t.Fatal(err)
	}
	b, ok := suite.Lookup(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.WorkloadKind() == core.KindTrain {
			return b, w
		}
	}
	t.Fatalf("%s has no train workload", name)
	return nil, nil
}

// TestSampledDiffAgreesWithRunWorkload: SampledDiff's two Reports must
// equal the exact and the sampled harness Measurements of the same cell on
// every modeled field, so the comparison validates the measurements the
// harness actually reports.
func TestSampledDiffAgreesWithRunWorkload(t *testing.T) {
	ctx := context.Background()
	b, w := trainCell(t, "500.perlbench_r")
	c, err := SampledDiff(ctx, b, w, Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		opts Options
		rpt  perf.Report
	}{
		{Options{Reps: 1}, c.Exact},
		{Options{Reps: 1, Sampled: true}, c.Sampled},
	} {
		m, err := RunWorkload(ctx, b, w, side.opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cycles != side.rpt.Cycles || m.TopDown != side.rpt.TopDown || !reflect.DeepEqual(m.Coverage, side.rpt.Coverage) {
			t.Errorf("sampled=%v: RunWorkload and SampledDiff disagree:\nmeasurement cycles %d topdown %+v coverage %v\nreport      cycles %d topdown %+v coverage %v",
				side.opts.Sampled, m.Cycles, m.TopDown, m.Coverage, side.rpt.Cycles, side.rpt.TopDown, side.rpt.Coverage)
		}
	}
}

// TestSampledDiffKeepsExactMethods: the exact Report's method profiles
// must survive the sampled passes that follow it on the same profiler,
// whose Report recycles the Methods buffer. mcf's train cell has a
// clustered plan, so its sampled method profiles differ from the exact
// ones.
func TestSampledDiffKeepsExactMethods(t *testing.T) {
	b, w := trainCell(t, "505.mcf_r")
	c, err := SampledDiff(context.Background(), b, w, Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	if _, err := core.Run(b, w, p); err != nil {
		t.Fatal(err)
	}
	if want := p.Report().Methods; !reflect.DeepEqual(c.Exact.Methods, want) {
		t.Errorf("SampledDiff's exact method profiles differ from a cold exact run's:\ngot  %+v\nwant %+v", c.Exact.Methods, want)
	}
}

// TestSampledOptionsNormalize pins the sampled-mode option rules: defaults
// filled in, incompatible combinations rejected, and sampled knobs without
// sampled mode rejected (they would silently change the cache key
// otherwise).
func TestSampledOptionsNormalize(t *testing.T) {
	o, err := Options{Sampled: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.SampledInterval != perf.DefaultSampleInterval || o.SampledPhases == 0 {
		t.Fatalf("sampled defaults not filled in: %+v", o)
	}
	cfg := o.ReportConfig()
	if !cfg.Sampled || cfg.SampledInterval != o.SampledInterval || cfg.SampledPhases != o.SampledPhases {
		t.Fatalf("ReportConfig dropped sampled fields: %+v", cfg)
	}
	for _, bad := range []Options{
		{Sampled: true, SampledPhases: -1},
		{SampledInterval: 1 << 10},
		{SampledPhases: 4},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("Options %+v must be rejected", bad)
		}
	}
}

// TestExactEnvelopeOmitsSampledKeys: exact measurements and configs must
// serialize without any sampled key, keeping exact envelopes byte-identical
// to those produced before sampling existed.
func TestExactEnvelopeOmitsSampledKeys(t *testing.T) {
	mb, err := json.Marshal(report.Measurement{Benchmark: "x"})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(report.RunConfig{Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{string(mb), string(cb)} {
		if strings.Contains(s, "sampled") {
			t.Fatalf("exact envelope leaks sampled keys: %s", s)
		}
	}
}
