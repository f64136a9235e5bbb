package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks/xz"
	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/stats"
)

// execFunc adapts a fake benchmark's one-shot run to
// core.PreparedWorkload: the fakes construct no input, so their Prepare
// only binds the workload.
type execFunc func(p *perf.Profiler) (core.Result, error)

func (f execFunc) Execute(p *perf.Profiler) (core.Result, error) { return f(p) }

// quickBench is a tiny deterministic benchmark for harness tests.
type quickBench struct{ name string }

func (q *quickBench) Name() string { return q.name }
func (q *quickBench) Area() string { return "testing" }
func (q *quickBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{
		core.Meta{Name: "test", Kind: core.KindTest},
		core.Meta{Name: "train", Kind: core.KindTrain},
		core.Meta{Name: "refrate", Kind: core.KindRefrate},
		core.Meta{Name: "alberta.a", Kind: core.KindAlberta},
		core.Meta{Name: "alberta.b", Kind: core.KindAlberta},
	}, nil
}

func (q *quickBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return q.run(w, p) }), nil
}

func (q *quickBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	// Workload-dependent behaviour so Table II has variation.
	n := uint64(len(w.WorkloadName())) * 500
	p.Do("alpha", func() {
		for i := uint64(0); i < n; i++ {
			p.Ops(4)
			p.Branch(1, i%3 == 0)
			p.Load(i * 64 % (1 << 18))
		}
	})
	p.Do("beta", func() { p.Ops(n * uint64(len(w.WorkloadName())) % 9000) })
	sum := core.NewChecksum().AddString(w.WorkloadName())
	return core.Result{
		Benchmark: q.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value(),
	}, nil
}

func quickOpts() Options { return Options{Reps: 2} }

func TestRunWorkloadRepetitionsAgree(t *testing.T) {
	b := &quickBench{name: "900.quick_r"}
	w, err := core.FindWorkload(b, "refrate")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunWorkload(context.Background(), b, w, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if m.Checksum == 0 || m.Cycles == 0 {
		t.Errorf("empty measurement: %+v", m)
	}
	if m.TopDown.Sum() < 0.99 {
		t.Errorf("topdown sum = %v", m.TopDown.Sum())
	}
}

// runOneBenchmark measures every workload of b through a Runner over a
// one-benchmark suite.
func runOneBenchmark(t *testing.T, b core.Benchmark, opts Options) []report.Measurement {
	t.Helper()
	s, err := core.NewSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(s, opts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res[b.Name()]
}

func TestRunBenchmarkExcludesTestByDefault(t *testing.T) {
	b := &quickBench{name: "900.quick_r"}
	ms := runOneBenchmark(t, b, quickOpts())
	if len(ms) != 4 {
		t.Fatalf("measurements = %d, want 4 (test excluded)", len(ms))
	}
	for _, m := range ms {
		if m.Kind == core.KindTest {
			t.Error("test workload leaked into measurements")
		}
	}
	withTest := quickOpts()
	withTest.IncludeTest = true
	ms = runOneBenchmark(t, b, withTest)
	if len(ms) != 5 {
		t.Errorf("with test: %d, want 5", len(ms))
	}
}

func TestRunSuiteAndTableII(t *testing.T) {
	s, err := core.NewSuite(&quickBench{name: "900.quick_r"}, &quickBench{name: "901.fast_r"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(context.Background(), s, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := report.TableII(res, res.SortedBenchmarks())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Workloads != 4 {
			t.Errorf("%s workloads = %d, want 4", r.Benchmark, r.Workloads)
		}
		if r.TopDown.Score <= 0 || r.Coverage.Score <= 0 {
			t.Errorf("%s scores = %v/%v", r.Benchmark, r.TopDown.Score, r.Coverage.Score)
		}
		if r.RefrateTimeS <= 0 {
			t.Errorf("%s refrate time missing", r.Benchmark)
		}
	}
	text := report.FormatTableII(rows)
	if !strings.Contains(text, "900.quick_r") || !strings.Contains(text, "μg(V)") {
		t.Errorf("formatted table missing content:\n%s", text)
	}
}

func TestTableIIncludesPaperAndMeasured(t *testing.T) {
	res := report.Results{
		"505.mcf_r": {{
			Benchmark: "505.mcf_r", Workload: "refrate", Kind: core.KindRefrate,
			ModeledSeconds: 0.5,
			TopDown:        stats.TopDown{FrontEnd: 0.1, BackEnd: 0.4, BadSpec: 0.1, Retiring: 0.4},
		}},
	}
	rows := report.TableI(res)
	if len(rows) != len(report.PaperTableI) {
		t.Fatalf("rows = %d", len(rows))
	}
	var mcf report.TableIRow
	for _, r := range rows {
		if r.Name == "505.mcf_r" {
			mcf = r
		}
	}
	if mcf.Paper2017 != 633 || mcf.Paper2006 != 333 || mcf.MeasuredS != 0.5 {
		t.Errorf("mcf row = %+v", mcf)
	}
	text := report.FormatTableI(rows)
	if !strings.Contains(text, "Route planning") || !strings.Contains(text, "Arithmetic Average") {
		t.Errorf("table I formatting:\n%s", text)
	}
}

func TestFigure1Extraction(t *testing.T) {
	s, err := core.NewSuite(&quickBench{name: "900.quick_r"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(context.Background(), s, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	series, err := report.Figure1(res, "900.quick_r")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Workloads) != 4 {
		t.Fatalf("series = %+v", series)
	}
	if _, err := report.Figure1(res, "no.such_r"); err == nil {
		t.Error("missing benchmark should error")
	}
	text := report.FormatFigure1(series)
	if !strings.Contains(text, "backend") {
		t.Errorf("figure 1 formatting:\n%s", text)
	}
}

func TestFigure2Extraction(t *testing.T) {
	s, err := core.NewSuite(&quickBench{name: "900.quick_r"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(context.Background(), s, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	series, err := report.Figure2(res, 3, "900.quick_r")
	if err != nil {
		t.Fatal(err)
	}
	cs := series[0]
	if cs.Methods[len(cs.Methods)-1] != "others" {
		t.Error("last method should be others")
	}
	// Each workload row must sum to ~1.
	for i, row := range cs.Values {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("workload %s coverage sums to %v", cs.Workloads[i], sum)
		}
	}
	text := report.FormatFigure2(series)
	if !strings.Contains(text, "alpha") {
		t.Errorf("figure 2 formatting:\n%s", text)
	}
}

func TestKindBreakdown(t *testing.T) {
	ms := []report.Measurement{
		{Kind: core.KindTrain}, {Kind: core.KindRefrate},
		{Kind: core.KindAlberta}, {Kind: core.KindAlberta},
	}
	bd := report.KindBreakdown(ms)
	if bd[core.KindAlberta] != 2 || bd[core.KindTrain] != 1 {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestRealBenchmarkThroughHarness(t *testing.T) {
	// End-to-end smoke: the xz benchmark through the full harness.
	b := xz.New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunWorkload(context.Background(), b, w, Options{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || len(m.Coverage) == 0 {
		t.Errorf("measurement = %+v", m)
	}
}

func TestBenchmarkReport(t *testing.T) {
	b := &quickBench{name: "900.quick_r"}
	ms := runOneBenchmark(t, b, quickOpts())
	text := report.BenchmarkReport(b.Name(), ms)
	for _, want := range []string{
		"Benchmark report: 900.quick_r",
		"Execution time per workload",
		"Top-down classification",
		"Hottest methods",
		"refrate",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	// The longest-running workload must have the longest bar.
	if !strings.Contains(text, "#") {
		t.Error("no bars rendered")
	}
}

func TestKernelRepresentativeness(t *testing.T) {
	mk := func(w string, kind core.Kind, f, b float64) report.Measurement {
		return report.Measurement{
			Workload: w, Kind: kind,
			TopDown: stats.TopDown{FrontEnd: f, BackEnd: b, BadSpec: 0.1, Retiring: 0.9 - f - b - 0.1 + 0.1},
		}
	}
	res := report.Results{
		// homogeneous: every workload close to refrate.
		"901.same_r": {
			mk("refrate", core.KindRefrate, 0.10, 0.40),
			mk("alberta.a", core.KindAlberta, 0.11, 0.41),
			mk("alberta.b", core.KindAlberta, 0.09, 0.39),
		},
		// heterogeneous: one workload far from refrate.
		"902.vary_r": {
			mk("refrate", core.KindRefrate, 0.10, 0.40),
			mk("alberta.a", core.KindAlberta, 0.10, 0.41),
			mk("alberta.far", core.KindAlberta, 0.40, 0.10),
		},
	}
	rows, err := report.Kernels(res, res.SortedBenchmarks())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// vary must rank first (largest max distance) and name the far
	// workload.
	if rows[0].Benchmark != "902.vary_r" || rows[0].WorstWorkload != "alberta.far" {
		t.Errorf("ranking wrong: %+v", rows[0])
	}
	if rows[0].MaxDistance <= rows[1].MaxDistance {
		t.Error("heterogeneous benchmark should have larger max distance")
	}
	text := report.FormatKernelRows(rows)
	if !strings.Contains(text, "902.vary_r") || !strings.Contains(text, "max-dist") {
		t.Errorf("format:\n%s", text)
	}
}

func TestKernelRepresentativenessRequiresRefrate(t *testing.T) {
	res := report.Results{"903.noref_r": {{Workload: "train", Kind: core.KindTrain}}}
	if _, err := report.Kernels(res, res.SortedBenchmarks()); err == nil {
		t.Error("missing refrate should error")
	}
}
