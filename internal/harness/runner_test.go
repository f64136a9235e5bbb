package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// slowBench is a configurable benchmark for runner tests: n Alberta
// workloads plus a refrate, an optional per-run delay, an optional set
// of workloads that fail, and an optional set that panic midway through a
// profiled method.
type slowBench struct {
	name    string
	n       int
	delay   time.Duration
	failOn  map[string]bool
	panicOn map[string]bool
}

func (s *slowBench) Name() string { return s.name }
func (s *slowBench) Area() string { return "testing" }
func (s *slowBench) Workloads() ([]core.Workload, error) {
	ws := []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}
	for i := 0; i < s.n; i++ {
		ws = append(ws, core.Meta{Name: fmt.Sprintf("alberta.%02d", i), Kind: core.KindAlberta})
	}
	return ws, nil
}

var errBoom = errors.New("boom")

func (s *slowBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return s.run(w, p) }), nil
}

func (s *slowBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.failOn[w.WorkloadName()] {
		return core.Result{}, errBoom
	}
	p.Do("main", func() {
		p.Ops(uint64(10 * (1 + len(w.WorkloadName()))))
		if s.panicOn[w.WorkloadName()] {
			panic("kernel bug")
		}
	})
	sum := core.NewChecksum().AddString(s.name).AddString(w.WorkloadName())
	return core.Result{
		Benchmark: s.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value(),
	}, nil
}

// stripWall zeroes the one field allowed to differ across worker counts.
func stripWall(res report.Results) report.Results {
	out := report.Results{}
	for name, ms := range res {
		cp := make([]report.Measurement, len(ms))
		copy(cp, ms)
		for i := range cp {
			cp[i].WallSeconds = 0
		}
		out[name] = cp
	}
	return out
}

func TestRunnerParallelSerialEquivalence(t *testing.T) {
	s, err := core.NewSuite(
		&quickBench{name: "900.quick_r"},
		&quickBench{name: "901.fast_r"},
		&quickBench{name: "902.slow_r"},
		&quickBench{name: "903.zip_r"},
	)
	if err != nil {
		t.Fatal(err)
	}
	serialOpts := quickOpts()
	serialOpts.Workers = 1
	serial, err := NewRunner(s, serialOpts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parallelOpts := quickOpts()
	parallelOpts.Workers = 8
	parallel, err := NewRunner(s, parallelOpts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(serial), stripWall(parallel)) {
		t.Errorf("parallel results differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// Workload order within each benchmark must follow the inventory, not
	// completion order.
	for _, name := range parallel.SortedBenchmarks() {
		ms := parallel[name]
		if len(ms) != 4 {
			t.Fatalf("%s: %d measurements, want 4", name, len(ms))
		}
		want := []string{"train", "refrate", "alberta.a", "alberta.b"}
		for i, m := range ms {
			if m.Workload != want[i] {
				t.Errorf("%s[%d] = %s, want %s", name, i, m.Workload, want[i])
			}
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	s, err := core.NewSuite(&slowBench{name: "910.sleepy_r", n: 40, delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	opts := Options{Reps: 1, Workers: 2, Progress: func(e Event) {
		if e.Kind == EventWorkloadDone && done.Add(1) == 1 {
			cancel()
		}
	}}
	start := time.Now()
	res, err := NewRunner(s, opts).Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled run returned results: %v", res)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if n := done.Load(); n >= 41 {
		t.Errorf("all %d workloads completed despite cancellation", n)
	}
}

func TestRunnerDeadline(t *testing.T) {
	s, err := core.NewSuite(&slowBench{name: "911.sleepy_r", n: 60, delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = NewRunner(s, Options{Reps: 1, Workers: 2}).Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunnerErrorCollection(t *testing.T) {
	s, err := core.NewSuite(
		&slowBench{name: "920.bad_r", n: 3, failOn: map[string]bool{"alberta.00": true, "alberta.02": true}},
		&slowBench{name: "921.good_r", n: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(s, Options{Reps: 1, Workers: 4}).Run(context.Background())
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if len(runErr.Failures) != 2 {
		t.Fatalf("failures = %d, want 2: %v", len(runErr.Failures), runErr)
	}
	// Failures follow inventory order regardless of completion order.
	for i, want := range []string{"alberta.00", "alberta.02"} {
		f := runErr.Failures[i]
		if f.Benchmark != "920.bad_r" || f.Workload != want {
			t.Errorf("failure[%d] = %s/%s, want 920.bad_r/%s", i, f.Benchmark, f.Workload, want)
		}
	}
	if !errors.Is(err, errBoom) {
		t.Error("errors.Is should reach the underlying failure through RunError")
	}
	// Partial results: the good benchmark is complete, the bad one keeps
	// its successful workloads.
	if got := len(res["921.good_r"]); got != 3 {
		t.Errorf("921.good_r measurements = %d, want 3", got)
	}
	if got := len(res["920.bad_r"]); got != 2 {
		t.Errorf("920.bad_r measurements = %d, want 2 (refrate + alberta.01)", got)
	}
}

func TestRunnerFailFast(t *testing.T) {
	s, err := core.NewSuite(&slowBench{name: "930.bad_r", n: 30, delay: time.Millisecond,
		failOn: map[string]bool{"alberta.02": true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(s, Options{Reps: 1, Workers: 2, FailFast: true}).Run(context.Background())
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	var runErr *RunError
	if errors.As(err, &runErr) {
		t.Error("FailFast should return the first error alone, not a *RunError")
	}
	if res != nil {
		t.Errorf("FailFast run returned results: %v", res)
	}
}

func TestRunnerProgressEvents(t *testing.T) {
	s, err := core.NewSuite(&slowBench{name: "940.ok_r", n: 5})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	opts := Options{Reps: 1, Workers: 3, Progress: func(e Event) { events = append(events, e) }}
	if _, err := NewRunner(s, opts).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 6 units → 6 start + 6 done events, serialized (the unsynchronized
	// append above is safe only because the Runner serializes calls; the
	// race detector checks that claim).
	if len(events) != 12 {
		t.Fatalf("events = %d, want 12", len(events))
	}
	var starts, dones int
	for _, e := range events {
		switch e.Kind {
		case EventWorkloadStart:
			starts++
		case EventWorkloadDone:
			dones++
		}
		if e.Total != 6 {
			t.Errorf("event total = %d, want 6", e.Total)
		}
	}
	if starts != 6 || dones != 6 {
		t.Errorf("starts/dones = %d/%d, want 6/6", starts, dones)
	}
	last := events[len(events)-1]
	if last.Completed != 6 {
		t.Errorf("final completed = %d, want 6", last.Completed)
	}
}

// TestRunnerProgressCompletedSerial pins the documented Completed contract
// (see Event): a start event does not count its own cell, the matching
// terminal event does, so a serial run emits exactly 0, 1, 1, 2, 2, …, N-1,
// N. The contract holds for failing cells too — errors count as completed.
func TestRunnerProgressCompletedSerial(t *testing.T) {
	s, err := core.NewSuite(&slowBench{name: "941.serial_r", n: 3,
		failOn: map[string]bool{"alberta.01": true}})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	var kinds []EventKind
	opts := Options{Reps: 1, Workers: 1, Progress: func(e Event) {
		got = append(got, e.Completed)
		kinds = append(kinds, e.Kind)
	}}
	if _, err := NewRunner(s, opts).Run(context.Background()); err == nil {
		t.Fatal("expected the seeded failure to surface")
	}
	const n = 4 // refrate + 3 alberta
	want := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		want = append(want, i, i+1)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("serial Completed sequence = %v, want %v", got, want)
	}
	for i, k := range kinds {
		if i%2 == 0 && k != EventWorkloadStart {
			t.Errorf("event %d kind = %v, want start", i, k)
		}
		if i%2 == 1 && k == EventWorkloadStart {
			t.Errorf("event %d kind = %v, want terminal", i, k)
		}
	}
}

// zeroChecksumBench returns checksum 0 on the first repetition and 1 on
// later ones: a legitimate-zero first checksum followed by divergence. The
// old first-rep sentinel (m.Checksum == 0) re-initialized the measurement
// every rep and silently skipped this determinism violation.
type zeroChecksumBench struct {
	runs atomic.Int64
}

func (z *zeroChecksumBench) Name() string { return "950.zero_r" }
func (z *zeroChecksumBench) Area() string { return "testing" }
func (z *zeroChecksumBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}
func (z *zeroChecksumBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return z.run(w, p) }), nil
}

func (z *zeroChecksumBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	var sum uint64
	if z.runs.Add(1) > 1 {
		sum = 1
	}
	return core.Result{Benchmark: z.Name(), Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum}, nil
}

// TestRunWorkloadDetectsNondeterminismAfterZeroChecksum runs the fault as
// an exact cell and as a sampled one, whose profile pass returns checksum 0
// and whose warm pass returns 1.
func TestRunWorkloadDetectsNondeterminismAfterZeroChecksum(t *testing.T) {
	for _, opts := range []Options{{Reps: 3}, {Reps: 3, Sampled: true}} {
		b := &zeroChecksumBench{}
		w, err := core.FindWorkload(b, "refrate")
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunWorkload(context.Background(), b, w, opts)
		if err == nil || !strings.Contains(err.Error(), "nondeterministic checksum") {
			t.Errorf("sampled=%v: expected nondeterminism error, got %v", opts.Sampled, err)
		}
	}
}

// growingBench returns the same checksum on every execution but retires k
// extra ops on its k-th: an identical result from a different event
// stream, which only the comparison of Reports across passes can catch.
type growingBench struct {
	runs atomic.Int64
}

func (g *growingBench) Name() string { return "951.grow_r" }
func (g *growingBench) Area() string { return "testing" }
func (g *growingBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}
func (g *growingBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) {
		k := uint64(g.runs.Add(1))
		p.Do("grow", func() { p.Ops(1000 + k) })
		return core.Result{Benchmark: g.Name(), Workload: w.WorkloadName(),
			Kind: w.WorkloadKind(), Checksum: 7}, nil
	}), nil
}

// reorderBench issues the same loads, ops and checksum on every execution
// and changes only their order: it sweeps a footprint twice the size of
// L1D, then sweeps it again forward on odd executions and backward on even
// ones. A backward second sweep starts on the lines the first left most
// recently used and hits them in L1D; a forward one finds each line evicted
// by LRU. Like a kernel ranging over a map, the counts match and the cycles
// do not.
type reorderBench struct {
	runs atomic.Int64
}

func (r *reorderBench) Name() string { return "952.reorder_r" }
func (r *reorderBench) Area() string { return "testing" }
func (r *reorderBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}
func (r *reorderBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	const lines = 2 * (32 << 10) / 64
	return execFunc(func(p *perf.Profiler) (core.Result, error) {
		backward := r.runs.Add(1)%2 == 0
		p.Do("reorder", func() {
			for i := uint64(0); i < lines; i++ {
				p.Load(i * 64)
			}
			for i := uint64(0); i < lines; i++ {
				line := i
				if backward {
					line = lines - 1 - i
				}
				p.Load(line * 64)
			}
		})
		return core.Result{Benchmark: r.Name(), Workload: w.WorkloadName(),
			Kind: w.WorkloadKind(), Checksum: 7}, nil
	}), nil
}

// TestRunWorkloadDetectsNondeterministicProfile: an exact cell compares
// every repetition's Report with the first, and a sampled cell compares its
// measure passes (Reps 4 runs two) the same way. Both catch a stream that
// grows and one that only reorders its loads.
func TestRunWorkloadDetectsNondeterministicProfile(t *testing.T) {
	for _, opts := range []Options{{Reps: 3}, {Reps: 4, Sampled: true}} {
		for _, b := range []core.Benchmark{&growingBench{}, &reorderBench{}} {
			w, err := core.FindWorkload(b, "refrate")
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunWorkload(context.Background(), b, w, opts)
			if err == nil || !strings.Contains(err.Error(), "nondeterministic profile") {
				t.Errorf("%s sampled=%v: expected nondeterministic profile error, got %v", b.Name(), opts.Sampled, err)
			}
		}
	}
}

// TestRunnerPanicIsolation: a benchmark that panics midway through a
// profiled method fails only its own cell. With FailFast off the run
// returns a *RunError naming the cell and carrying the panic's stack,
// every other cell is still delivered, and the cells measured after the
// panic — on the same worker, under Workers = 1 — are bit-identical to a
// run in which nothing panicked.
func TestRunnerPanicIsolation(t *testing.T) {
	clean, err := core.NewSuite(&slowBench{name: "950.panic_r", n: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRunner(clean, Options{Reps: 1, Workers: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSuite(&slowBench{name: "950.panic_r", n: 4, panicOn: map[string]bool{"alberta.01": true}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(s, Options{Reps: 1, Workers: 1}).Run(context.Background())
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if len(runErr.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly the panicking cell", runErr.Failures)
	}
	f := runErr.Failures[0]
	if f.Benchmark != "950.panic_r" || f.Workload != "alberta.01" {
		t.Errorf("failure names %s/%s, want 950.panic_r/alberta.01", f.Benchmark, f.Workload)
	}
	msg := f.Error()
	for _, part := range []string{"950.panic_r/alberta.01", "panic", "kernel bug", "runtime/debug.Stack"} {
		if !strings.Contains(msg, part) {
			t.Errorf("panic error lacks %q:\n%s", part, msg)
		}
	}
	// Every other cell was delivered, identical to the clean run.
	var others []report.Measurement
	for _, m := range want["950.panic_r"] {
		if m.Workload != "alberta.01" {
			others = append(others, m)
		}
	}
	if !reflect.DeepEqual(stripWall(report.Results{"950.panic_r": others}), stripWall(got)) {
		t.Errorf("cells around the panic differ from the clean run:\nwant %+v\ngot  %+v", others, got["950.panic_r"])
	}
}
