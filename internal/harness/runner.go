package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// EventKind classifies a progress Event.
type EventKind int

const (
	// EventWorkloadStart fires when a worker picks up a (benchmark,
	// workload) pair.
	EventWorkloadStart EventKind = iota
	// EventWorkloadDone fires when a measurement completes successfully.
	EventWorkloadDone
	// EventWorkloadError fires when a measurement fails.
	EventWorkloadError
)

// String returns a short label for the kind.
func (k EventKind) String() string {
	switch k {
	case EventWorkloadStart:
		return "start"
	case EventWorkloadDone:
		return "done"
	case EventWorkloadError:
		return "error"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one progress notification from a Runner. Events for the same
// run are delivered serially.
type Event struct {
	Kind      EventKind
	Benchmark string
	Workload  string
	// Err is set on EventWorkloadError.
	Err error
	// Completed counts measurements finished (done or failed) at the
	// moment the event fires. An EventWorkloadStart therefore does NOT
	// count its own cell — the cell has only started — while the
	// EventWorkloadDone/EventWorkloadError for the same cell does. Under a
	// serial run (Workers = 1) the sequence is 0, 1, 1, 2, 2, …, N-1, N;
	// the final terminal event of any run reports Completed == Total.
	// Total is the size of the (benchmark, workload) matrix.
	Completed int
	Total     int
}

// WorkloadError records one failed measurement inside a RunError.
type WorkloadError struct {
	Benchmark string
	Workload  string
	Err       error
}

// Error implements error.
func (e *WorkloadError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying measurement error.
func (e *WorkloadError) Unwrap() error { return e.Err }

// RunError aggregates the per-workload failures of a run executed with
// FailFast off. Failures are ordered by suite inventory position
// (benchmark name order, then workload order), not by completion time.
type RunError struct {
	Failures []*WorkloadError
}

// Error implements error, summarizing up to three failures.
func (e *RunError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "harness: %d of the measurements failed: ", len(e.Failures))
	for i, f := range e.Failures {
		if i == 3 {
			fmt.Fprintf(&sb, "; and %d more", len(e.Failures)-i)
			break
		}
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(f.Error())
	}
	return sb.String()
}

// Unwrap exposes the individual failures to errors.Is / errors.As.
func (e *RunError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// Unit is one cell of a run plan: a benchmark and one of its workloads.
// A plan built from a suite enumerates the benchmark × workload matrix in
// inventory order; NewPlanRunner accepts an explicit plan — including
// generated workloads that appear in no inventory.
type Unit struct {
	Benchmark core.Benchmark
	Workload  core.Workload
}

// Cell identifies one completed plan position in a Sink delivery.
type Cell struct {
	// Index is the cell's position in the plan; Total the plan size.
	// Deliveries arrive in completion order, so Index does not increase
	// monotonically under Workers > 1 — consumers that need plan order
	// key their state by Index.
	Index int
	Total int
	// Benchmark and Workload name the cell.
	Benchmark string
	Workload  string
}

// Sink consumes completed measurements one at a time, in completion
// order. The Runner serializes calls — a Sink needs no locking of its own
// — and releases each Measurement after the call returns, so a sweep
// holds at most O(Workers) Measurements regardless of plan size. A Sink
// that retains only what it needs (a feature vector, a summary row)
// keeps the whole run allocation-bounded. Returning a non-nil error
// cancels the run; the Sink is not called again and Stream returns the
// error.
type Sink func(Cell, report.Measurement) error

// Runner executes a run plan — a suite's benchmark × workload matrix or
// an explicit Unit list — on ForEach's bounded worker pool. Each worker owns
// one perf.Profiler and recycles it across its cells via Reset; no
// profiler state flows between measurements, so results are bit-identical
// across worker counts except for WallSeconds.
type Runner struct {
	suite *core.Suite
	units []Unit // explicit plan when suite is nil
	opts  Options
}

// NewRunner builds a Runner over the suite's benchmark × workload matrix
// in inventory order.
func NewRunner(s *core.Suite, opts Options) *Runner {
	return &Runner{suite: s, opts: opts}
}

// NewPlanRunner builds a Runner over an explicit plan. The plan order is
// the cell Index order; IncludeTest has no effect (the plan already says
// exactly what runs).
func NewPlanRunner(units []Unit, opts Options) *Runner {
	return &Runner{units: units, opts: opts}
}

// plan enumerates the run's units. Inventory errors abort the run
// regardless of FailFast: they mean the suite itself is broken.
func (r *Runner) plan(opts Options) ([]Unit, error) {
	if r.suite == nil {
		return r.units, nil
	}
	var units []Unit
	for _, b := range r.suite.Benchmarks() {
		ws, err := measurementInventory(b, opts)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			units = append(units, Unit{Benchmark: b, Workload: w})
		}
	}
	return units, nil
}

// Stream executes the plan, handing each completed cell's Measurement to
// sink and releasing it — the streaming path behind Run and the sweep
// drivers. Cancellation of ctx stops the run promptly (between
// measurements; a benchmark's Execute is not interruptible) and returns
// ctx.Err(). A sink error cancels the run and is returned. With FailFast
// set, the first measurement error cancels the rest and is returned
// alone; otherwise all failures are collected into a *RunError, returned
// after every remaining cell has still been delivered to sink.
func (r *Runner) Stream(ctx context.Context, sink Sink) error {
	// Normalize once; workers below read the normalized copy only.
	opts, err := r.opts.Normalize()
	if err != nil {
		return err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	units, err := r.plan(opts)
	if err != nil {
		return err
	}

	// Each unit writes only its own errs slot and each worker only its
	// own profs slot, so neither slice needs a lock; mu guards the shared
	// progress counter and serializes both Progress calls and sink
	// deliveries.
	errs := make([]*WorkloadError, len(units))
	profs := make([]*perf.Profiler, min(workers, len(units)))
	var (
		mu        sync.Mutex
		completed int  //lint:guardedby mu
		sinkDone  bool //lint:guardedby mu — a sink rejected a cell; deliver no more
	)
	emit := func(e Event) {
		if opts.Progress != nil {
			opts.Progress(e)
		}
	}
	err = ForEach(ctx, len(units), workers, func(ctx context.Context, worker, idx int) error {
		u := units[idx]
		// Each worker owns one profiler for its whole share of the
		// matrix: Reset recycles it between cells, so a run constructs
		// `workers` profilers instead of one per cell. Recycling is
		// Report-invariant — a Reset profiler reproduces a fresh
		// profiler's Report exactly (perf's tests assert it), so results
		// stay bit-identical across worker counts except for WallSeconds.
		prof := profs[worker]
		if prof == nil {
			prof = perf.New()
			profs[worker] = prof
		} else {
			prof.Reset()
		}
		mu.Lock()
		emit(Event{Kind: EventWorkloadStart, Benchmark: u.Benchmark.Name(),
			Workload: u.Workload.WorkloadName(), Completed: completed, Total: len(units)})
		mu.Unlock()
		m, err := runWorkload(ctx, u.Benchmark, u.Workload, opts, prof)
		if errors.Is(err, errPanic) {
			// The panic may have left the profiler mid-pass; build the
			// worker's next one from scratch rather than Reset it.
			profs[worker] = nil
		}
		mu.Lock()
		defer mu.Unlock()
		completed++
		switch {
		case err == nil:
			emit(Event{Kind: EventWorkloadDone, Benchmark: u.Benchmark.Name(),
				Workload: u.Workload.WorkloadName(), Completed: completed, Total: len(units)})
			// The measurement leaves the runner here: after sink
			// returns, no reference survives, so the live set is
			// bounded by the worker count.
			if sink != nil && !sinkDone {
				cell := Cell{Index: idx, Total: len(units),
					Benchmark: u.Benchmark.Name(), Workload: u.Workload.WorkloadName()}
				if serr := sink(cell, m); serr != nil {
					sinkDone = true
					return fmt.Errorf("harness: sink: %w", serr)
				}
			}
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			// The measurement was interrupted by cancellation (parent
			// context, a FailFast abort or a sink rejection), not by a
			// failure of its own; leave the slot empty.
		default:
			errs[idx] = &WorkloadError{Benchmark: u.Benchmark.Name(), Workload: u.Workload.WorkloadName(), Err: err}
			emit(Event{Kind: EventWorkloadError, Benchmark: u.Benchmark.Name(),
				Workload: u.Workload.WorkloadName(), Err: err, Completed: completed, Total: len(units)})
			if opts.FailFast {
				return err
			}
		}
		return nil
	})
	if err != nil {
		// The parent's ctx.Err(), a sink rejection, or under FailFast the
		// first measurement failure.
		return err
	}

	// Collect failures in plan (inventory) order. Units that were never
	// handed out (after a cancellation) carry no error and are simply
	// absent.
	var failures []*WorkloadError
	for _, e := range errs {
		if e != nil {
			failures = append(failures, e)
		}
	}
	if len(failures) > 0 {
		return &RunError{Failures: failures}
	}
	return nil
}

// Run executes the plan and retains every measurement, assembled into
// report.Results in plan (inventory) order regardless of scheduling. It
// is Stream with a collecting sink — sweeps that cannot afford O(cells)
// Measurements use Stream directly. With FailFast off, measurement
// failures return the successful partial results alongside a *RunError.
func (r *Runner) Run(ctx context.Context) (report.Results, error) {
	var (
		ms  []report.Measurement
		oks []bool
	)
	err := r.Stream(ctx, func(c Cell, m report.Measurement) error {
		if ms == nil {
			ms = make([]report.Measurement, c.Total)
			oks = make([]bool, c.Total)
		}
		ms[c.Index], oks[c.Index] = m, true
		return nil
	})
	if err != nil {
		var runErr *RunError
		if !errors.As(err, &runErr) {
			return nil, err
		}
	}
	res := report.Results{}
	for idx := range ms {
		if oks[idx] {
			res[ms[idx].Benchmark] = append(res[ms[idx].Benchmark], ms[idx])
		}
	}
	if err != nil {
		return res, err
	}
	return res, nil
}
