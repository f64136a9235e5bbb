package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// sampledComparison is the paired outcome of measuring one workload both
// exactly and phase-sampled: the two Reports, their per-counter error, and
// the plan the sampled run used.
type sampledComparison struct {
	Exact   perf.Report
	Sampled perf.Report
	Diff    perf.ReportDiff
	Plan    *perf.SamplePlan
}

// sampledDiff measures b/w exactly and phase-sampled on the same prepared
// input and returns both sides with their per-counter error. It is one
// exact pass, the sampled prelude, and one measure pass, each pass run as
// runWorkload runs it.
func sampledDiff(ctx context.Context, b core.Benchmark, w core.Workload) (*sampledComparison, error) {
	name := b.Name() + "/" + w.WorkloadName()
	pw, err := b.Prepare(w)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: prepare: %w", name, err)
	}

	p := perf.New()
	exact, err := measurePass(p, pw, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: exact: %w", name, err)
	}
	// The sampled passes' Reports recycle the Methods buffer.
	exact.rpt.Methods = slices.Clone(exact.rpt.Methods)
	p.Reset()
	s, err := samplePrelude(ctx, name, pw, p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sampled, err := measurePass(p, pw, s)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: measure: %w", name, err)
	}
	if s.checksum != exact.res.Checksum || sampled.res.Checksum != exact.res.Checksum {
		return nil, fmt.Errorf("harness: %s: nondeterministic checksum across passes", name)
	}
	return &sampledComparison{
		Exact:   exact.rpt,
		Sampled: sampled.rpt,
		Diff:    perf.ReportError(exact.rpt, sampled.rpt),
		Plan:    s.plan,
	}, nil
}

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
				c, err := sampledDiff(ctx, b, w)
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

// TestSampledDiffAgreesWithRunWorkload: sampledDiff's two Reports must
// equal the exact and the sampled harness Measurements of the same cell on
// every modeled field, so the comparison validates the measurements the
// harness actually reports.
func TestSampledDiffAgreesWithRunWorkload(t *testing.T) {
	ctx := context.Background()
	b, w := trainCell(t, "500.perlbench_r")
	c, err := sampledDiff(ctx, b, w)
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
			t.Errorf("sampled=%v: RunWorkload and sampledDiff disagree:\nmeasurement cycles %d topdown %+v coverage %v\nreport      cycles %d topdown %+v coverage %v",
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
	c, err := sampledDiff(context.Background(), b, w)
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	if _, err := core.Run(b, w, p); err != nil {
		t.Fatal(err)
	}
	if want := p.Report().Methods; !reflect.DeepEqual(c.Exact.Methods, want) {
		t.Errorf("sampledDiff's exact method profiles differ from a cold exact run's:\ngot  %+v\nwant %+v", c.Exact.Methods, want)
	}
}

// TestSampledOptionsNormalize pins the sampled-mode option rules: sampled
// mode survives normalization into the report config, and the one rule
// that rejects options still applies to sampled runs.
func TestSampledOptionsNormalize(t *testing.T) {
	o, err := Options{Sampled: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg := o.ReportConfig(); !cfg.Sampled {
		t.Fatalf("ReportConfig dropped sampled mode: %+v", cfg)
	}
	if _, err := (Options{Sampled: true, Reps: -1}).Normalize(); err == nil {
		t.Error("negative reps must be rejected in sampled mode")
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
