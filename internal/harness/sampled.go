package harness

import (
	"context"
	"fmt"

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
// which must be fresh or Reset: a profile pass (signatures of
// perf.DefaultSampleInterval-op intervals, no probes), phase.BuildPlan
// into phase.DefaultPhases clusters, and a warm pass (exact probing,
// counters discarded, simulator state checkpointed at the plan's restore
// points) whose checksum must equal the profile pass's. It leaves p Reset
// for the first measure pass.
func samplePrelude(ctx context.Context, name string, pw core.PreparedWorkload, p *perf.Profiler) (*samplePlan, error) {
	fail := func(stage string, err error) (*samplePlan, error) {
		return nil, fmt.Errorf("harness: %s: %s: %w", name, stage, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.BeginSampleProfile(perf.DefaultSampleInterval); err != nil {
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
		IntervalOps: perf.DefaultSampleInterval,
		Phases:      phase.DefaultPhases,
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
