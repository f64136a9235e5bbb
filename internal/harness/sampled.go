package harness

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/phase"
)

// samplePlan is what a sampled cell's prelude hands its measure passes: the
// phase plan, the warm pass's checkpoints, and the checksum both prelude
// passes computed, against which every measure pass is checked.
type samplePlan struct {
	plan     *perf.SamplePlan
	ckpts    *perf.SampleCheckpoints
	checksum uint64
}

// samplePrelude runs the two unmeasured passes of a sampled cell on p,
// which must be fresh or Reset: a profile pass (interval signatures, no
// probes), phase.BuildPlan over its signatures, and a warm pass (exact
// probing, counters discarded, simulator state checkpointed at the plan's
// restore points) whose checksum must equal the profile pass's. It leaves p
// Reset for the first measure pass.
func samplePrelude(ctx context.Context, name string, pw core.PreparedWorkload, p *perf.Profiler, opts Options) (*samplePlan, error) {
	fail := func(stage string, err error) (*samplePlan, error) {
		return nil, fmt.Errorf("harness: %s: %s: %w", name, stage, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.BeginSampleProfile(opts.SampledInterval); err != nil {
		return fail("profile", err)
	}
	res, err := pw.Execute(p)
	if err != nil {
		return fail("profile", err)
	}
	s := &samplePlan{checksum: res.Checksum}
	sigs, err := p.FinishSampleProfile()
	if err != nil {
		return fail("profile", err)
	}
	if s.plan, err = phase.BuildPlan(sigs, phase.Config{
		IntervalOps: opts.SampledInterval,
		Phases:      opts.SampledPhases,
	}); err != nil {
		return fail("plan", err)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.Reset()
	if err := p.BeginSampleWarm(s.plan); err != nil {
		return fail("warm", err)
	}
	if res, err = pw.Execute(p); err != nil {
		return fail("warm", err)
	}
	if res.Checksum != s.checksum {
		return fail("warm", fmt.Errorf("nondeterministic checksum across passes"))
	}
	if s.ckpts, err = p.FinishSampleWarm(); err != nil {
		return fail("warm", err)
	}
	p.Reset()
	return s, nil
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
// input and returns both sides with their per-counter error. It is one
// exact pass, the sampled prelude, and one measure pass, each pass run as
// runWorkload runs it. It is the engine of the `make diff-sampled`
// validator and albertabench's sampled rows. Options follow Normalize's
// sampled rules (Sampled is implied).
func SampledDiff(ctx context.Context, b core.Benchmark, w core.Workload, opts Options) (*SampledComparison, error) {
	opts.Sampled = true
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
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
	s, err := samplePrelude(ctx, name, pw, p, opts)
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
	return &SampledComparison{
		Exact:       exact.rpt,
		Sampled:     sampled.rpt,
		Diff:        perf.ReportError(exact.rpt, sampled.rpt),
		Plan:        s.plan,
		ExactWall:   exact.wall,
		SampledWall: sampled.wall,
	}, nil
}
