package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// execFunc adapts a fake benchmark's one-shot run to
// core.PreparedWorkload: the fakes construct no input, so their Prepare
// only binds the workload.
type execFunc func(p *perf.Profiler) (core.Result, error)

func (f execFunc) Execute(p *perf.Profiler) (core.Result, error) { return f(p) }

// genBench is a generator-capable benchmark whose behaviour varies by
// generated index, giving the clustering real structure.
type genBench struct {
	name string
}

func (b *genBench) Name() string { return b.name }
func (b *genBench) Area() string { return "testing" }
func (b *genBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}

func (b *genBench) GenerateWorkload(seed int64, index int) (core.Workload, error) {
	return core.Meta{Name: core.GeneratedName(seed, index), Kind: core.KindAlberta}, nil
}

func (b *genBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return b.run(w, p) }), nil
}

func (b *genBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	_, idx, ok := core.ParseGeneratedName(w.WorkloadName())
	if !ok {
		idx = 0
	}
	n := uint64(250 + 173*idx)
	p.Do(fmt.Sprintf("phase.%d", idx%3), func() {
		for i := uint64(0); i < n; i++ {
			p.Ops(2)
			p.Branch(1, i%uint64(idx+2) == 0)
			p.Load(i * 64 % (1 << 14))
		}
	})
	p.Do("tail", func() { p.Ops(n % 503) })
	sum := core.NewChecksum().AddString(b.name).AddString(w.WorkloadName())
	return core.Result{
		Benchmark: b.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value(),
	}, nil
}

// plainBench has no generator.
type plainBench struct{ name string }

func (b *plainBench) Name() string { return b.name }
func (b *plainBench) Area() string { return "testing" }
func (b *plainBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}

func (b *plainBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return b.run(w, p) }), nil
}

func (b *plainBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	p.Do("only", func() { p.Ops(10) })
	return core.Result{Benchmark: b.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: 1}, nil
}

func testSuite(t *testing.T) *core.Suite {
	t.Helper()
	s, err := core.NewSuite(
		&genBench{name: "992.beta_r"},
		&genBench{name: "991.alpha_r"},
		&plainBench{name: "990.plain_r"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigNormalize(t *testing.T) {
	suite := testSuite(t)

	// Defaults: every generator-capable benchmark, sorted; n=16, k=3.
	cfg, err := Config{}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Benchmarks, []string{"991.alpha_r", "992.beta_r"}) {
		t.Errorf("default benchmarks = %v", cfg.Benchmarks)
	}
	if cfg.PerBenchmark != 16 || cfg.K != 3 {
		t.Errorf("defaults: n=%d k=%d, want 16 and 3", cfg.PerBenchmark, cfg.K)
	}

	// K clamps to PerBenchmark; explicit lists come back sorted.
	cfg, err = Config{Benchmarks: []string{"992.beta_r", "991.alpha_r"}, PerBenchmark: 2, K: 5}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 2 {
		t.Errorf("K = %d, want clamped to 2", cfg.K)
	}
	if !reflect.DeepEqual(cfg.Benchmarks, []string{"991.alpha_r", "992.beta_r"}) {
		t.Errorf("benchmarks not sorted: %v", cfg.Benchmarks)
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unknown benchmark", Config{Benchmarks: []string{"999.none_r"}}},
		{"non-generator", Config{Benchmarks: []string{"990.plain_r"}}},
		{"duplicate", Config{Benchmarks: []string{"991.alpha_r", "991.alpha_r"}}},
		{"negative n", Config{PerBenchmark: -1}},
		{"negative k", Config{K: -2}},
	} {
		if _, err := tc.cfg.Normalize(suite); !errors.Is(err, ErrSweep) {
			t.Errorf("%s: err = %v, want ErrSweep", tc.name, err)
		}
	}
}

func TestPlanOrder(t *testing.T) {
	suite := testSuite(t)
	cfg, err := Config{PerBenchmark: 3, Seed: 9}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	units, err := Plan(suite, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range units {
		got = append(got, u.Benchmark.Name()+"/"+u.Workload.WorkloadName())
	}
	want := []string{
		"991.alpha_r/gen.s9.0", "991.alpha_r/gen.s9.1", "991.alpha_r/gen.s9.2",
		"992.beta_r/gen.s9.0", "992.beta_r/gen.s9.1", "992.beta_r/gen.s9.2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan order:\ngot  %v\nwant %v", got, want)
	}
}

// streamInto runs the plan with the given worker count, delivering each
// cell to the accumulator, and returns the finished report.
func streamInto(t *testing.T, suite *core.Suite, cfg Config, workers int) *Report {
	t.Helper()
	opts, err := harness.Options{Reps: 1, Workers: workers, FailFast: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	units, err := Plan(suite, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(cfg)
	err = harness.NewPlanRunner(units, opts).Stream(context.Background(), func(c harness.Cell, m report.Measurement) error {
		acc.Add(c.Index, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Report(opts.ReportConfig())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportSerialParallelEquivalence is the determinism pin: the full
// sweep report — representatives, clusters, coverage loss, summaries —
// is a pure function of the plan, independent of worker count and hence
// of cell completion order.
func TestReportSerialParallelEquivalence(t *testing.T) {
	suite := testSuite(t)
	cfg, err := Config{PerBenchmark: 8, Seed: 4, K: 3}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	serial := streamInto(t, suite, cfg, 1)
	parallel := streamInto(t, suite, cfg, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel sweeps disagree:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial.Benchmarks) != 2 {
		t.Fatalf("%d benchmark sweeps, want 2", len(serial.Benchmarks))
	}
	for _, b := range serial.Benchmarks {
		if b.Cells != 8 || b.K != 3 || len(b.Representatives) != 3 || len(b.Clusters) != 3 {
			t.Errorf("%s: unexpected shape %+v", b.Benchmark, b)
		}
		if b.CoverageLoss.Dropped != 5 {
			t.Errorf("%s: dropped = %d, want 5", b.Benchmark, b.CoverageLoss.Dropped)
		}
		members := 0
		for _, cl := range b.Clusters {
			members += len(cl.Members)
		}
		if members != 8 {
			t.Errorf("%s: clusters cover %d members, want 8", b.Benchmark, members)
		}
	}
}

// TestAccumulatorOrderIndependence feeds the identical cells in forward
// and reverse arrival order; the reports must match exactly (Add keys by
// plan index, Report folds in index order).
func TestAccumulatorOrderIndependence(t *testing.T) {
	suite := testSuite(t)
	cfg, err := Config{Benchmarks: []string{"991.alpha_r"}, PerBenchmark: 6, Seed: 2, K: 2}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := harness.Options{Reps: 1, Workers: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	units, err := Plan(suite, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		idx int
		m   report.Measurement
	}
	var cells []cell
	err = harness.NewPlanRunner(units, opts).Stream(context.Background(), func(c harness.Cell, m report.Measurement) error {
		cells = append(cells, cell{c.Index, m})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	forward, reverse := NewAccumulator(cfg), NewAccumulator(cfg)
	for _, c := range cells {
		forward.Add(c.idx, c.m)
	}
	for i := len(cells) - 1; i >= 0; i-- {
		reverse.Add(cells[i].idx, cells[i].m)
	}
	a, err := forward.Report(opts.ReportConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := reverse.Report(opts.ReportConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("arrival order changed the report:\nforward: %+v\nreverse: %+v", a, b)
	}
}

// TestReportRejectsMissingCells proves a partial sweep cannot silently
// reduce: Report errors when any plan index was never delivered.
func TestReportRejectsMissingCells(t *testing.T) {
	suite := testSuite(t)
	cfg, err := Config{Benchmarks: []string{"991.alpha_r"}, PerBenchmark: 3, Seed: 1, K: 1}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(cfg)
	m := report.Measurement{Benchmark: "991.alpha_r", Workload: "gen.s1.2", Cycles: 100}
	acc.Add(2, m)
	if _, err := acc.Report(report.RunConfig{}); err == nil || !strings.Contains(err.Error(), "never delivered") {
		t.Errorf("partial reduction: err = %v, want missing-cell error", err)
	}
}

func TestFormat(t *testing.T) {
	suite := testSuite(t)
	cfg, err := Config{Benchmarks: []string{"991.alpha_r"}, PerBenchmark: 4, Seed: 3, K: 2}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(streamInto(t, suite, cfg, 2))
	for _, want := range []string{
		"workload-space sweep: seed=3 n=4/benchmark k=2",
		"991.alpha_r: 4 workloads -> 2 representatives",
		"cluster 1 (representative ",
		"coverage loss: dropped=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
