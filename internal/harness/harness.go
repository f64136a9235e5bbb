// Package harness runs the characterization experiments of Section V: the
// benchmark × workload × repetition matrix, the Table I and Table II
// summaries, and the per-workload series behind Figures 1 and 2.
//
// The matrix is executed by a Runner, which fans (benchmark, workload)
// pairs out over ForEach and assembles results in deterministic inventory
// order regardless of scheduling. ForEach is the repo's one bounded
// fan-out — albertad's jobs and sweeps run their cells on it too — and
// runWorkload, through which every local measurement passes, is the one
// place a panicking benchmark is recovered into that cell's error.
// Its repetition loop is the one loop that runs measured passes, exact and
// sampled; SampledDiff composes the same sampled prelude and pass helper
// with one exact pass. RunSuite and RunWorkload are thin convenience
// wrappers over the Runner and runWorkload.
//
// Result data types live in the internal/harness/report package, which
// defines the versioned JSON envelope (report.Suite, schema_version 2)
// shared by every result frontend. This package exports only the run
// surface — Options, Runner, ForEach, RunSuite/RunWorkload, SampledDiff
// and the progress Event contract; the historical aliases over report types were
// removed after their one-release deprecation window.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/phase"
)

// Options configure a characterization run.
//
// The zero value is not directly runnable: Normalize maps it to the
// paper's defaults and validates the rest. RunWorkload and Runner.Run
// normalize internally, so callers only call Normalize themselves when
// they need the defaulted values (for cache keys, envelopes, or error
// reporting before a run starts).
type Options struct {
	// Reps is the number of executions per workload; the paper used
	// three, and Normalize defaults zero to three. Modeled measurements
	// are deterministic, so repetitions serve as a determinism check and
	// wall-time averaging.
	Reps int
	// IncludeTest keeps the SPEC test inputs (excluded by default, as in
	// the paper).
	IncludeTest bool
	// Workers bounds the number of (benchmark, workload) measurements in
	// flight at once. Zero or negative means runtime.GOMAXPROCS(0);
	// Workers = 1 reproduces the serial path. Every measurement uses its
	// own perf.Profiler, so any worker count yields bit-identical results
	// except for the WallSeconds field.
	Workers int
	// Sampled switches workload measurement to phase-sampled simulation:
	// a profile pass slices the event stream into fixed-size instruction
	// intervals and fingerprints each, k-medoids clustering picks
	// representative intervals, a warm pass checkpoints simulator state at
	// the plan's restore points, and the measure passes fully simulate only
	// the representatives, extrapolating probe-derived counters by cluster
	// weight. Architectural counters and checksums stay exact.
	Sampled bool
	// SampledInterval is the sampled-mode profiling interval in retired
	// ops; Normalize defaults zero to perf.DefaultSampleInterval.
	SampledInterval uint64
	// SampledPhases is the sampled-mode cluster count k; Normalize
	// defaults zero to phase.DefaultPhases.
	SampledPhases int
	// FailFast cancels outstanding work on the first measurement error
	// and returns that error alone. When false, the run continues past
	// failures and reports them all in a *RunError alongside the partial
	// results.
	FailFast bool
	// Progress, when non-nil, receives an Event as each workload
	// measurement starts and finishes. The Runner serializes calls, so
	// the callback needs no locking of its own.
	Progress func(Event)
}

// DefaultOptions mirror the paper's methodology. They are exactly the
// normalized zero Options.
func DefaultOptions() Options { return Options{Reps: 3} }

// Normalize is the single place run options are defaulted and validated:
// zero Reps becomes the paper's three repetitions, negative Workers
// becomes the GOMAXPROCS sentinel zero, and negative Reps are rejected.
// Every run entry point (RunWorkload, Runner.Run, albertarun, albertad)
// goes through it, so there is no flag-side duplicate of these rules.
func (o Options) Normalize() (Options, error) {
	if o.Reps < 0 {
		return o, fmt.Errorf("harness: reps must be >= 1 (got %d)", o.Reps)
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if !o.Sampled {
		if o.SampledInterval != 0 || o.SampledPhases != 0 {
			return o, fmt.Errorf("harness: sampled interval/phases require sampled mode")
		}
		return o, nil
	}
	if o.SampledPhases < 0 {
		return o, fmt.Errorf("harness: sampled phases must be >= 1 (got %d)", o.SampledPhases)
	}
	if o.SampledInterval == 0 {
		o.SampledInterval = perf.DefaultSampleInterval
	}
	if o.SampledPhases == 0 {
		o.SampledPhases = phase.DefaultPhases
	}
	return o, nil
}

// ReportConfig extracts the result-affecting option subset recorded in
// report.Suite envelopes and used for cache key derivation. Call it on
// normalized Options.
func (o Options) ReportConfig() report.RunConfig {
	cfg := report.RunConfig{
		Reps:        o.Reps,
		IncludeTest: o.IncludeTest,
	}
	if o.Sampled {
		cfg.Sampled = true
		cfg.SampledInterval = o.SampledInterval
		cfg.SampledPhases = o.SampledPhases
	}
	return cfg
}

// RunWorkload executes one benchmark/workload pair opts.Reps times.
//
// The workload's input is prepared exactly once (core.Benchmark.Prepare)
// — uninstrumented, before the first repetition — and the prepared handle is
// reused by every repetition, which resets its mutable scratch in place
// (core.PreparedWorkload's contract). Repetitions 1..N-1 therefore do zero
// input rework, and WallSeconds times only the measured execute phase.
// Every Measurement field except WallSeconds is bit-identical to a cold
// core.Run each repetition.
//
// The context is checked between repetitions; a benchmark's execute phase
// itself is not interruptible.
func RunWorkload(ctx context.Context, b core.Benchmark, w core.Workload, opts Options) (report.Measurement, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return report.Measurement{}, err
	}
	return runWorkload(ctx, b, w, opts, perf.New())
}

// errPanic marks a measurement error recovered from a panicking benchmark.
var errPanic = errors.New("panic")

// runWorkload is RunWorkload on a caller-supplied profiler, which must be
// freshly constructed or Reset, and normalized Options. The Runner's
// workers recycle one profiler each across all their cells through it, so
// a whole suite run constructs Workers profilers instead of one per cell.
//
// Its repetition loop is the one place measured passes run and are checked
// against each other. An exact cell runs opts.Reps plain passes. A sampled
// cell counts its prelude's profile and warm passes among opts.Reps
// (samplePrelude) and then runs max(1, Reps-2) measure passes, which
// restore checkpoints at dead→live edges and fully simulate only the plan's
// live intervals. WallSeconds is the mean over the loop's passes
// alone — for a sampled cell the steady-state cost of one more sampled
// measurement, which is the number the speedup claims are about.
//
// A panic in prepare or execute is recovered into an error wrapping
// errPanic that names the cell and carries the stack: every local
// execution — the Runner's and albertad's — passes through here, so one
// bad cell fails only itself.
func runWorkload(ctx context.Context, b core.Benchmark, w core.Workload, opts Options, p *perf.Profiler) (m report.Measurement, err error) {
	name := b.Name() + "/" + w.WorkloadName()
	defer func() {
		if r := recover(); r != nil {
			m, err = report.Measurement{}, fmt.Errorf("harness: %s: %w: %v\n%s", name, errPanic, r, debug.Stack())
		}
	}()
	pw, err := b.Prepare(w)
	if err != nil {
		return report.Measurement{}, fmt.Errorf("harness: %s: prepare: %w", name, err)
	}
	var s *samplePlan
	passes := opts.Reps
	if opts.Sampled {
		if s, err = samplePrelude(ctx, name, pw, p, opts); err != nil {
			return report.Measurement{}, err
		}
		passes = max(1, opts.Reps-2)
		m.Checksum = s.checksum
	}
	// One profiler serves all passes: Reset recycles the just-constructed
	// state — clearing method records and simulators in place — without
	// reallocating the multi-megabyte modeled hierarchy, and reuse does not
	// weaken the determinism check below: a Reset profiler must reproduce
	// the first pass's Report exactly, which perf's own tests assert. Each
	// pass's checksum must equal the one before it, a sampled prelude's
	// included, and each Report the first pass's.
	for rep := 0; rep < passes; rep++ {
		if err := ctx.Err(); err != nil {
			return report.Measurement{}, err
		}
		if rep > 0 {
			p.Reset()
		}
		ps, err := measurePass(p, pw, s)
		if err != nil {
			return report.Measurement{}, fmt.Errorf("harness: %s rep %d: %w", name, rep, err)
		}
		if (rep > 0 || s != nil) && ps.res.Checksum != m.Checksum {
			return report.Measurement{}, fmt.Errorf("harness: %s: nondeterministic checksum across passes", name)
		}
		if rep == 0 {
			m = report.Measurement{
				Benchmark: b.Name(),
				Workload:  w.WorkloadName(),
				Kind:      w.WorkloadKind(),
				Checksum:  ps.res.Checksum,
				TopDown:   ps.rpt.TopDown,
				Coverage:  ps.rpt.Coverage,
				Cycles:    ps.rpt.Cycles,
				Sampled:   s != nil,
			}
			m.ModeledSeconds = perf.ModeledSeconds(ps.rpt.Cycles)
		} else if m.Cycles != ps.rpt.Cycles || m.TopDown != ps.rpt.TopDown {
			return report.Measurement{}, fmt.Errorf("harness: %s: nondeterministic profile across passes", name)
		}
		m.WallSeconds += ps.wall
	}
	m.WallSeconds /= float64(passes)
	return m, nil
}

// pass is one measured execution: its result, its Report, and the wall
// seconds of the Execute call alone.
type pass struct {
	res  core.Result
	rpt  perf.Report
	wall float64
}

// measurePass runs one measured pass of pw on p, which must be fresh or
// Reset: a plain exact pass when s is nil, else a sampled measure pass over
// s's plan and checkpoints.
func measurePass(p *perf.Profiler, pw core.PreparedWorkload, s *samplePlan) (pass, error) {
	if s != nil {
		if err := p.BeginSampleMeasure(s.plan, s.ckpts); err != nil {
			return pass{}, err
		}
	}
	start := time.Now()
	res, err := pw.Execute(p)
	if err != nil {
		return pass{}, err
	}
	wall := time.Since(start).Seconds()
	return pass{res: res, rpt: p.Report(), wall: wall}, nil
}

// measurementInventory returns b's workloads under the Options' test-input
// policy.
func measurementInventory(b core.Benchmark, opts Options) ([]core.Workload, error) {
	var ws []core.Workload
	var err error
	if opts.IncludeTest {
		ws, err = b.Workloads()
	} else {
		ws, err = core.MeasurementWorkloads(b)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name(), err)
	}
	return ws, nil
}

// RunSuite measures every benchmark of the suite. It is a thin wrapper
// over NewRunner(s, opts).Run(ctx).
func RunSuite(ctx context.Context, s *core.Suite, opts Options) (report.Results, error) {
	return NewRunner(s, opts).Run(ctx)
}
