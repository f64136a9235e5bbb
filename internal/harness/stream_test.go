package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// TestStreamMatchesRun proves Stream delivers exactly the cells Run
// retains: collecting the stream by index reproduces Run's Results.
func TestStreamMatchesRun(t *testing.T) {
	s, err := core.NewSuite(
		&quickBench{name: "900.quick_r"},
		&quickBench{name: "901.fast_r"},
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.Workers = 4
	want, err := NewRunner(s, opts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	collected := map[int]report.Measurement{}
	var total int
	err = NewRunner(s, opts).Stream(context.Background(), func(c Cell, m report.Measurement) error {
		if _, dup := collected[c.Index]; dup {
			t.Errorf("cell %d delivered twice", c.Index)
		}
		if c.Benchmark != m.Benchmark || c.Workload != m.Workload {
			t.Errorf("cell %+v does not match measurement %s/%s", c, m.Benchmark, m.Workload)
		}
		collected[c.Index] = m
		total = c.Total
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != total {
		t.Fatalf("delivered %d of %d cells", len(collected), total)
	}
	got := report.Results{}
	for idx := 0; idx < total; idx++ {
		m := collected[idx]
		got[m.Benchmark] = append(got[m.Benchmark], m)
	}
	if !reflect.DeepEqual(stripWall(want), stripWall(got)) {
		t.Errorf("streamed cells differ from Run results")
	}
}

// TestStreamBuilderSerialParallelEquivalence proves the streaming summary
// is a pure function of the plan: serial and 8-way parallel runs fold to
// identical per-benchmark summaries even though cells arrive in different
// orders.
func TestStreamBuilderSerialParallelEquivalence(t *testing.T) {
	s, err := core.NewSuite(
		&quickBench{name: "900.quick_r"},
		&quickBench{name: "901.fast_r"},
		&quickBench{name: "902.slow_r"},
	)
	if err != nil {
		t.Fatal(err)
	}
	summarize := func(workers int) []report.BenchSummary {
		opts := quickOpts()
		opts.Workers = workers
		b := report.NewBuilder()
		err := NewRunner(s, opts).Stream(context.Background(), func(c Cell, m report.Measurement) error {
			b.Add(c.Index, m)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.Summaries()
	}
	serial := summarize(1)
	parallel := summarize(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("summaries differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != 3 || serial[0].Cells != 4 {
		t.Errorf("unexpected summary shape: %+v", serial)
	}
}

// TestStreamSinkErrorCancels proves a sink rejection stops the run: the
// sink is never called again and Stream returns the error.
func TestStreamSinkErrorCancels(t *testing.T) {
	s, err := core.NewSuite(&slowBench{name: "920.stream_r", n: 30})
	if err != nil {
		t.Fatal(err)
	}
	errReject := errors.New("sink full")
	calls := 0
	err = NewRunner(s, Options{Reps: 1, Workers: 2}).Stream(context.Background(),
		func(c Cell, m report.Measurement) error {
			calls++
			return errReject
		})
	if !errors.Is(err, errReject) {
		t.Fatalf("err = %v, want %v", err, errReject)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after rejecting, want 1", calls)
	}
}

// TestPlanRunnerExplicitUnits proves NewPlanRunner runs exactly the given
// plan — including workloads outside any inventory and repeated cells —
// and that Run assembles in plan order.
func TestPlanRunnerExplicitUnits(t *testing.T) {
	b := &quickBench{name: "900.quick_r"}
	units := []Unit{
		{Benchmark: b, Workload: core.Meta{Name: "gen.s7.1", Kind: core.KindAlberta}},
		{Benchmark: b, Workload: core.Meta{Name: "gen.s7.0", Kind: core.KindAlberta}},
		{Benchmark: b, Workload: core.Meta{Name: "gen.s7.1", Kind: core.KindAlberta}},
	}
	res, err := NewPlanRunner(units, Options{Reps: 1, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ms := res["900.quick_r"]
	if len(ms) != 3 {
		t.Fatalf("%d measurements, want 3", len(ms))
	}
	want := []string{"gen.s7.1", "gen.s7.0", "gen.s7.1"}
	for i, m := range ms {
		if m.Workload != want[i] {
			t.Errorf("plan position %d = %s, want %s", i, m.Workload, want[i])
		}
	}
}

// coverBench inflates every measurement with a wide Coverage map, so
// retaining measurements is immediately visible in heap terms: each cell
// carries ~methods entries of method-name string + float.
type coverBench struct {
	name    string
	methods int
}

func (c *coverBench) Name() string { return c.name }
func (c *coverBench) Area() string { return "testing" }
func (c *coverBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}

func (c *coverBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return c.run(w, p) }), nil
}

func (c *coverBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	for i := 0; i < c.methods; i++ {
		p.Do(fmt.Sprintf("method.%s.%04d", w.WorkloadName(), i), func() { p.Ops(3) })
	}
	sum := core.NewChecksum().AddString(c.name).AddString(w.WorkloadName())
	return core.Result{Benchmark: c.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value()}, nil
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamBoundedLiveMeasurements is the acceptance gate for the
// streaming path: a 1000-cell sweep whose measurements carry wide
// Coverage maps must keep the live heap bounded by O(workers)
// Measurements, not O(cells). The sink retains only a compact Row per
// cell (report.Builder); if the runner or builder secretly held on to
// the measurements, the retained coverage maps alone would exceed the
// budget several times over.
func TestStreamBoundedLiveMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-cell sweep")
	}
	const (
		cells   = 1000
		methods = 400
		workers = 4
	)
	b := &coverBench{name: "930.cover_r", methods: methods}
	w := core.Meta{Name: "refrate", Kind: core.KindRefrate}
	units := make([]Unit, cells)
	for i := range units {
		units[i] = Unit{Benchmark: b, Workload: w}
	}

	// Run the identical sweep twice — once retaining only builder rows,
	// once retaining every Measurement — and compare live-heap growth
	// past a warm-up point (cell 100, by which every worker has built its
	// multi-megabyte profiler, an intentional O(workers) cost). The
	// retaining run self-calibrates what O(cells) retention costs on this
	// runtime, so the bound needs no absolute byte budget.
	sweep := func(retain bool) int64 {
		builder := report.NewBuilder()
		var kept []report.Measurement
		var warm, peak uint64
		seen := 0
		err := NewPlanRunner(units, Options{Reps: 1, Workers: workers}).Stream(context.Background(),
			func(c Cell, m report.Measurement) error {
				if retain {
					kept = append(kept, m)
				} else {
					builder.Add(c.Index, m)
				}
				seen++
				if seen == 100 {
					warm = liveHeap()
				} else if seen%100 == 0 {
					if h := liveHeap(); h > peak {
						peak = h
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if h := liveHeap(); h > peak {
			peak = h
		}
		if retain {
			if len(kept) != cells {
				t.Fatalf("retained %d cells, want %d", len(kept), cells)
			}
			runtime.KeepAlive(kept)
		} else if builder.Len() != cells {
			t.Fatalf("builder recorded %d cells, want %d", builder.Len(), cells)
		}
		return int64(peak) - int64(warm)
	}

	streamGrowth := sweep(false)
	retainGrowth := sweep(true)
	if retainGrowth < 5<<20 {
		t.Fatalf("retaining run grew only %d bytes; coverage payload too small to observe — raise methods", retainGrowth)
	}
	// O(workers) live Measurements means the streaming peak must sit far
	// below full retention; 1/5th leaves room for builder rows, GC noise
	// and in-flight cells while still catching any O(cells) leak.
	if streamGrowth*5 > retainGrowth {
		t.Errorf("streaming sweep peaked at %d bytes vs %d retained — measurements are not being released",
			streamGrowth, retainGrowth)
	}
}
