package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/phase"
)

// runWorkloadSampled is the sampled-mode counterpart of runWorkload's
// repetition loop. Options.Reps counts total executions, as in exact mode,
// but they split into the sampled pipeline's roles: one profile pass
// (interval signatures, no probes), one warm pass (exact probing, counters
// discarded, simulator state checkpointed at the plan's restore points),
// and max(1, Reps-2) measure passes that restore checkpoints at dead→live
// edges and fully simulate only the plan's live intervals. WallSeconds is
// the mean of the measure passes alone — the steady-state cost of one more
// sampled measurement, which is the number the speedup claims are about —
// and every pass's checksum is cross-checked, so the benchmark's
// architectural execution is verified exact even though probe counters
// extrapolate.
func runWorkloadSampled(ctx context.Context, b core.Benchmark, w core.Workload, opts Options, p *perf.Profiler, pw core.PreparedWorkload) (report.Measurement, error) {
	name := fmt.Sprintf("%s/%s", b.Name(), w.WorkloadName())
	fail := func(stage string, err error) (report.Measurement, error) {
		return report.Measurement{}, fmt.Errorf("harness: %s: %s: %w", name, stage, err)
	}

	if err := ctx.Err(); err != nil {
		return report.Measurement{}, err
	}
	if err := p.BeginSampleProfile(opts.SampledInterval); err != nil {
		return fail("profile", err)
	}
	res, err := pw.Execute(p)
	if err != nil {
		return fail("profile", err)
	}
	checksum := res.Checksum
	sigs, err := p.FinishSampleProfile()
	if err != nil {
		return fail("profile", err)
	}
	plan, err := phase.BuildPlan(sigs, phase.Config{
		IntervalOps: opts.SampledInterval,
		Phases:      opts.SampledPhases,
	})
	if err != nil {
		return fail("plan", err)
	}

	if err := ctx.Err(); err != nil {
		return report.Measurement{}, err
	}
	p.Reset()
	if err := p.BeginSampleWarm(plan); err != nil {
		return fail("warm", err)
	}
	if res, err = pw.Execute(p); err != nil {
		return fail("warm", err)
	}
	if res.Checksum != checksum {
		return fail("warm", fmt.Errorf("nondeterministic checksum across passes"))
	}
	ckpts, err := p.FinishSampleWarm()
	if err != nil {
		return fail("warm", err)
	}

	var m report.Measurement
	measures := opts.Reps - 2
	if measures < 1 {
		measures = 1
	}
	for rep := 0; rep < measures; rep++ {
		if err := ctx.Err(); err != nil {
			return report.Measurement{}, err
		}
		p.Reset()
		if err := p.BeginSampleMeasure(plan, ckpts); err != nil {
			return fail("measure", err)
		}
		start := time.Now()
		if res, err = pw.Execute(p); err != nil {
			return report.Measurement{}, fmt.Errorf("harness: %s: measure rep %d: %w", name, rep, err)
		}
		wall := time.Since(start).Seconds()
		if res.Checksum != checksum {
			return fail("measure", fmt.Errorf("nondeterministic checksum across passes"))
		}
		rpt := p.Report()
		if rep == 0 {
			m = report.Measurement{
				Benchmark: b.Name(),
				Workload:  w.WorkloadName(),
				Kind:      w.WorkloadKind(),
				Checksum:  checksum,
				TopDown:   rpt.TopDown,
				Coverage:  rpt.Coverage,
				Cycles:    rpt.Cycles,
				Sampled:   true,
			}
			m.ModeledSeconds = perf.ModeledSeconds(rpt.Cycles)
		} else if m.Cycles != rpt.Cycles || m.TopDown != rpt.TopDown {
			return fail("measure", fmt.Errorf("nondeterministic profile across repetitions"))
		}
		m.WallSeconds += wall
	}
	m.WallSeconds /= float64(measures)
	return m, nil
}

// SampledComparison is the paired outcome of measuring one workload both
// exactly and phase-sampled: the two Reports, their per-counter error, the
// plan the sampled run used, and single-pass wall times (one exact
// execution vs one sampled measure pass — the steady-state costs).
type SampledComparison struct {
	Exact       perf.Report
	Sampled     perf.Report
	Diff        perf.ReportDiff
	Plan        *perf.SamplePlan
	ExactWall   float64
	SampledWall float64
}

// SampledDiff measures b/w exactly and phase-sampled on the same prepared
// input and returns both sides with their per-counter error. It is the
// engine of the `make diff-sampled` validator and albertabench's sampled
// rows. Options follow Normalize's sampled rules (Sampled is implied).
func SampledDiff(ctx context.Context, b core.Benchmark, w core.Workload, opts Options) (*SampledComparison, error) {
	opts.Sampled = true
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s", b.Name(), w.WorkloadName())
	pw, err := b.Prepare(w)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: prepare: %w", name, err)
	}

	p := perf.New()
	start := time.Now()
	res, err := pw.Execute(p)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: exact: %w", name, err)
	}
	c := &SampledComparison{ExactWall: time.Since(start).Seconds(), Exact: p.Report()}
	checksum := res.Checksum

	p.Reset()
	if err := p.BeginSampleProfile(opts.SampledInterval); err != nil {
		return nil, fmt.Errorf("harness: %s: profile: %w", name, err)
	}
	if res, err = pw.Execute(p); err != nil {
		return nil, fmt.Errorf("harness: %s: profile: %w", name, err)
	}
	if res.Checksum != checksum {
		return nil, fmt.Errorf("harness: %s: profile: nondeterministic checksum across passes", name)
	}
	sigs, err := p.FinishSampleProfile()
	if err != nil {
		return nil, fmt.Errorf("harness: %s: profile: %w", name, err)
	}
	if c.Plan, err = phase.BuildPlan(sigs, phase.Config{
		IntervalOps: opts.SampledInterval,
		Phases:      opts.SampledPhases,
	}); err != nil {
		return nil, fmt.Errorf("harness: %s: plan: %w", name, err)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.Reset()
	if err := p.BeginSampleWarm(c.Plan); err != nil {
		return nil, fmt.Errorf("harness: %s: warm: %w", name, err)
	}
	if res, err = pw.Execute(p); err != nil {
		return nil, fmt.Errorf("harness: %s: warm: %w", name, err)
	}
	if res.Checksum != checksum {
		return nil, fmt.Errorf("harness: %s: warm: nondeterministic checksum across passes", name)
	}
	ckpts, err := p.FinishSampleWarm()
	if err != nil {
		return nil, fmt.Errorf("harness: %s: warm: %w", name, err)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.Reset()
	if err := p.BeginSampleMeasure(c.Plan, ckpts); err != nil {
		return nil, fmt.Errorf("harness: %s: measure: %w", name, err)
	}
	start = time.Now()
	if res, err = pw.Execute(p); err != nil {
		return nil, fmt.Errorf("harness: %s: measure: %w", name, err)
	}
	c.SampledWall = time.Since(start).Seconds()
	if res.Checksum != checksum {
		return nil, fmt.Errorf("harness: %s: measure: nondeterministic checksum across passes", name)
	}
	c.Sampled = p.Report()
	c.Diff = perf.ReportError(c.Exact, c.Sampled)
	return c, nil
}
