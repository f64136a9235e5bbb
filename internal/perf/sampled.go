package perf

import (
	"fmt"

	"repro/internal/uarch"
)

// Phase-sampled simulation (SimPoint-style, with checkpoint warming). Exact
// simulation routes every event of every repetition through the modeled
// simulators; sampled mode simulates only representative instruction
// intervals and extrapolates:
//
//  1. Profile pass (BeginSampleProfile): the event stream is sliced into
//     fixed-size intervals of IntervalOps retired micro-ops and each
//     interval accumulates a basic-block-vector-style signature — a
//     SigDims-bucket frequency histogram of branch sites and method
//     entries. No simulator is probed at all, so the pass costs little
//     more than the benchmark's own compute.
//  2. Plan (internal/phase): signatures are clustered with k-medoids; the
//     medoid of each cluster is simulated with the cluster's population as
//     its weight. The first and last intervals are always simulated with
//     weight 1 — the first captures the cold-start transient exactly, the
//     last the tail — and each cluster's earliest interval is pinned live
//     so compulsory misses count exactly once.
//  3. Warm pass (BeginSampleWarm): one full-probe replay that counts
//     nothing but snapshots complete simulator state — caches, TLBs,
//     predictor, coalescing memos — at every boundary where a live
//     interval follows a dead one. It runs once per workload, at exact
//     cost, and its checkpoints are reused by every measure repetition.
//  4. Measure pass (BeginSampleMeasure): the same event stream replays;
//     architectural counters (ops, branches, loads, stores, taken) count
//     exactly everywhere, but simulator probes run only inside live
//     (weight > 0) intervals. Each dead→live transition first restores the
//     warm pass's checkpoint, so a live interval measures from exactly the
//     state the exact path would have — its probe outcomes are
//     bit-identical to the exact run's for that interval, and the only
//     sampling error left is how well each medoid represents its cluster.
//     Live intervals probe through the same functions as the exact path
//     and count straight into the report counters. The first probe of a
//     method in an interval of weight w > 1 records its counters as a
//     base; at the boundary each such method's growth since its base is
//     added w − 1 more times, extrapolating the skipped population
//     (base + d + d·(w − 1) = base + d·w, exact in uint64 arithmetic).
//
// Warming policies without checkpoints were evaluated and rejected: state
// carry-over alone under-fills the LLC (hit counts measured 72% low on a
// cache-straining stream), and a fixed warm window of probed-but-uncounted
// predecessor intervals cannot be sized — the LLC needs a fixed number of
// probes to refill, not a fixed number of intervals (see DESIGN.md §16).
//
// Everything is deterministic: interval boundaries derive from exact op
// counts, signatures from hashed static sites, clustering is seeded
// deterministically, and the fold walks an append-ordered slice —
// two sampled runs of the same workload are bit-identical (the harness
// asserts it). perf cannot import internal/cluster (it would cycle through
// report → core), so plan construction lives in internal/phase and the
// plan crosses back in as the dependency-free SamplePlan value.

// SigDims is the number of buckets in an interval signature. Branch sites
// and method entries hash into a fixed 64-bucket frequency vector — small
// enough that clustering hundreds of intervals is cheap, wide enough that
// distinct phases (different hot methods, different branch mixes) land in
// distinct buckets.
const SigDims = 64

// DefaultMaxIntervals bounds how many intervals a profile pass hands to the
// clusterer: internal/phase coarsens (merges adjacent pairs, doubling the
// effective interval size) until at most this many remain.
const DefaultMaxIntervals = 512

// DefaultSampleInterval is the default profiling interval in retired ops.
// It is deliberately small: paired with the DefaultMaxIntervals coarsening
// cap it puts every stream on a 256–512 interval grid — short streams keep
// the fine grid (which resolves their phase blocks), long ones coarsen to
// the cap — which the tuning sweep found to be the accuracy sweet spot.
const DefaultSampleInterval = 16 << 10

// IntervalSignature is the BBV-style frequency vector of one interval.
type IntervalSignature [SigDims]uint32

// sigBucket maps a static site identifier to its signature bucket with a
// 64-bit finalizer, so nearby sites spread across buckets.
func sigBucket(x uint64) int {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x & (SigDims - 1))
}

// enterSigWeight is the signature increment of one method entry. Entries
// are far rarer than branches, but a shift in the executing method mix is
// the strongest phase signal, so entries weigh more than single branches.
const enterSigWeight = 4

// SamplePlan tells a measure pass which intervals to simulate and how to
// extrapolate them. Weights[i] is interval i's extrapolation weight: 0
// skips the interval's probes entirely, w > 0 counts its probe outcomes w
// times. Intervals at or beyond len(Weights) — possible only through
// event-count drift, which the harness's checksum comparison would catch —
// are simulated with weight 1.
type SamplePlan struct {
	// IntervalOps is the interval size in retired micro-ops. It may exceed
	// the profile pass's interval when internal/phase coarsened; boundaries
	// still align because coarsening multiplies by whole factors.
	IntervalOps uint64
	// Weights has one entry per interval of the stream.
	Weights []uint32
	// Phases is the cluster count the plan was built with (informational).
	Phases int
	// Clustered is false when the stream was too short to sample — every
	// weight is 1 and the measurement degenerates to exact simulation.
	Clustered bool
}

// weightAt returns interval i's weight.
func (pl *SamplePlan) weightAt(i int) uint32 {
	if i >= len(pl.Weights) {
		return 1
	}
	return pl.Weights[i]
}

// LiveIntervals counts the intervals a measure pass will fully simulate.
func (pl *SamplePlan) LiveIntervals() int {
	n := 0
	for _, w := range pl.Weights {
		if w > 0 {
			n++
		}
	}
	return n
}

// Intervals returns the total interval count of the plan.
func (pl *SamplePlan) Intervals() int { return len(pl.Weights) }

// restorePoints lists the intervals a measure pass restores state at: every
// live interval that follows a dead one. Live runs carry state naturally,
// and interval 0 starts from reset state in every pass.
func (pl *SamplePlan) restorePoints() []int {
	var pts []int
	for i := 1; i < len(pl.Weights); i++ {
		if pl.Weights[i] > 0 && pl.Weights[i-1] == 0 {
			pts = append(pts, i)
		}
	}
	return pts
}

// simCheckpoint is a complete probe-visible simulator snapshot: the three
// simulator channels plus the same-line coalescing memos (a memo mismatch
// would suppress or admit the first probe after a restore).
type simCheckpoint struct {
	mem           *uarch.HierarchyState
	l1i           *uarch.CacheState
	itlb          *uarch.CacheState
	tour          *uarch.TournamentState
	lastData      uint64
	lastFetch     uint64
	lastFetchPage uint64
}

// SampleCheckpoints carries the warm pass's boundary snapshots to the
// measure passes. It is opaque outside perf; the harness only moves it
// from FinishSampleWarm to BeginSampleMeasure.
type SampleCheckpoints struct {
	intervalOps uint64
	byInterval  map[int]*simCheckpoint
}

// sampleMode distinguishes the three sampled passes.
type sampleMode uint8

const (
	sampProfile sampleMode = iota
	sampWarm
	sampMeasure
)

// sampState is the per-pass state of sampled mode; Profiler.samp is nil
// outside it.
type sampState struct {
	intervalOps uint64
	mode        sampleMode

	// weight is the current interval's weight: probes run where it is
	// nonzero and fold where it exceeds 1. A profile pass probes nothing
	// (0), a warm pass everything (1), a measure pass follows its plan.
	weight uint32

	// Stream position: seq is the current interval index, opsInInterval
	// the retired ops inside it. Events commit to the interval current at
	// their start; boundary crossings fire after the event's ops land.
	seq           int
	opsInInterval uint64

	// Profile pass: cur accumulates the current interval's signature.
	sigs []IntervalSignature
	cur  IntervalSignature

	// Warm pass: checkpoints accumulates boundary snapshots at ckptAt
	// intervals (the plan's restore points).
	ckptAt map[int]bool
	ckpts  *SampleCheckpoints

	// Measure pass. Live intervals probe and count; dead intervals only
	// keep the architectural counters and the fetch offsets advancing.
	// touched lists the methods given a fold base in the current interval.
	plan    *SamplePlan
	restore map[int]*simCheckpoint
	touched []*methodRecord
}

// sampleModeError returns why this profiler cannot enter sampled mode, or
// nil. Sampling does not compose with an event mirror: the reference path
// it carries has no checkpoint support.
func (p *Profiler) sampleModeError() error {
	switch {
	case p.samp != nil:
		return fmt.Errorf("perf: already in a sampled pass")
	case p.mirror != nil:
		return fmt.Errorf("perf: sampled mode is incompatible with an attached event mirror")
	}
	return nil
}

// BeginSampleProfile starts a signature-only profile pass. It must be
// called on a fresh or Reset profiler, before any events; until
// FinishSampleProfile the profiler counts architectural events and interval
// signatures but probes no simulator.
func (p *Profiler) BeginSampleProfile(intervalOps uint64) error {
	if err := p.sampleModeError(); err != nil {
		return err
	}
	if intervalOps == 0 {
		return fmt.Errorf("perf: sample interval must be >= 1 op")
	}
	p.samp = &sampState{intervalOps: intervalOps, mode: sampProfile}
	return nil
}

// FinishSampleProfile ends a profile pass and returns the per-interval
// signatures, including the final partial interval if it retired any ops.
// The profiler leaves sampled mode; Reset it before the next pass.
func (p *Profiler) FinishSampleProfile() ([]IntervalSignature, error) {
	s := p.samp
	if s == nil || s.mode != sampProfile {
		return nil, fmt.Errorf("perf: FinishSampleProfile without BeginSampleProfile")
	}
	sigs := s.sigs
	if s.opsInInterval > 0 {
		sigs = append(sigs, s.cur)
	}
	p.samp = nil
	return sigs, nil
}

// BeginSampleWarm starts the checkpoint-collection pass for plan. The pass
// probes every simulator exactly as an unsampled run would — its counters
// are complete but are conventionally discarded by the Reset before the
// measure pass — and snapshots simulator state at each of the plan's
// restore points. It must be called on a fresh or Reset profiler.
func (p *Profiler) BeginSampleWarm(plan *SamplePlan) error {
	if err := p.sampleModeError(); err != nil {
		return err
	}
	if plan == nil || plan.IntervalOps == 0 {
		return fmt.Errorf("perf: warm pass requires a plan with a nonzero interval")
	}
	s := &sampState{
		intervalOps: plan.IntervalOps,
		mode:        sampWarm,
		weight:      1,
		ckptAt:      make(map[int]bool),
		ckpts:       &SampleCheckpoints{intervalOps: plan.IntervalOps, byInterval: make(map[int]*simCheckpoint)},
	}
	for _, i := range plan.restorePoints() {
		s.ckptAt[i] = true
	}
	p.samp = s
	return nil
}

// FinishSampleWarm ends a warm pass and returns its checkpoints. The
// profiler leaves sampled mode; Reset it before the measure pass.
func (p *Profiler) FinishSampleWarm() (*SampleCheckpoints, error) {
	s := p.samp
	if s == nil || s.mode != sampWarm {
		return nil, fmt.Errorf("perf: FinishSampleWarm without BeginSampleWarm")
	}
	ckpts := s.ckpts
	p.samp = nil
	return ckpts, nil
}

// BeginSampleMeasure starts a measure pass following plan, restoring state
// from the warm pass's checkpoints at each dead→live transition. ckpts may
// be nil only for a plan with no dead→live transitions (an all-live plan).
// It must be called on a fresh or Reset profiler, before any events. The
// measurement is finalized by Report, which folds the pending interval.
func (p *Profiler) BeginSampleMeasure(plan *SamplePlan, ckpts *SampleCheckpoints) error {
	if err := p.sampleModeError(); err != nil {
		return err
	}
	if plan == nil || plan.IntervalOps == 0 {
		return fmt.Errorf("perf: measure pass requires a plan with a nonzero interval")
	}
	if len(plan.Weights) > 0 && plan.Weights[0] == 0 {
		return fmt.Errorf("perf: plan skips interval 0, which must be simulated (it carries the cold-start transient)")
	}
	restore := make(map[int]*simCheckpoint)
	for _, i := range plan.restorePoints() {
		if ckpts == nil {
			return fmt.Errorf("perf: plan restores at interval %d but no warm-pass checkpoints were supplied", i)
		}
		if ckpts.intervalOps != plan.IntervalOps {
			return fmt.Errorf("perf: checkpoints were taken at interval %d ops, plan uses %d", ckpts.intervalOps, plan.IntervalOps)
		}
		ck, ok := ckpts.byInterval[i]
		if !ok {
			return fmt.Errorf("perf: warm pass has no checkpoint for interval %d", i)
		}
		restore[i] = ck
	}
	p.samp = &sampState{intervalOps: plan.IntervalOps, mode: sampMeasure, weight: plan.weightAt(0), plan: plan, restore: restore}
	return nil
}

// sampAdvance retires n ops against the interval clock, firing boundary
// transitions. A single batched event may cross several boundaries.
func (p *Profiler) sampAdvance(n uint64) {
	s := p.samp
	s.opsInInterval += n
	for s.opsInInterval >= s.intervalOps {
		s.opsInInterval -= s.intervalOps
		switch s.mode {
		case sampProfile:
			s.sigs = append(s.sigs, s.cur)
			s.cur = IntervalSignature{}
			s.seq++
		case sampWarm:
			s.seq++
			if s.ckptAt[s.seq] {
				s.ckpts.byInterval[s.seq] = p.checkpointSims()
			}
		case sampMeasure:
			p.sampBoundary()
		}
	}
}

// sampBoundary handles one measure-pass interval transition: fold the
// finished interval at its weight, take the next interval's weight, and on
// a dead→live edge restore the warm pass's snapshot so the live interval
// measures from exactly the simulator state the exact path would have.
// Between restore points state simply carries over, untouched.
func (p *Profiler) sampBoundary() {
	s := p.samp
	s.fold()
	s.seq++
	s.weight = s.plan.weightAt(s.seq)
	if ck, ok := s.restore[s.seq]; ok {
		p.restoreSims(ck)
	}
}

// checkpointSims snapshots every probe-visible piece of simulator state.
func (p *Profiler) checkpointSims() *simCheckpoint {
	return &simCheckpoint{
		mem:           p.mem.Checkpoint(),
		l1i:           p.l1i.Checkpoint(),
		itlb:          p.itlb.Checkpoint(),
		tour:          p.tour.Checkpoint(),
		lastData:      p.lastData,
		lastFetch:     p.lastFetch,
		lastFetchPage: p.lastFetchPage,
	}
}

// restoreSims rewinds simulator state to a warm-pass snapshot.
func (p *Profiler) restoreSims(ck *simCheckpoint) {
	p.mem.Restore(ck.mem)
	p.l1i.Restore(ck.l1i)
	p.itlb.Restore(ck.itlb)
	p.tour.Restore(ck.tour)
	p.lastData = ck.lastData
	p.lastFetch = ck.lastFetch
	p.lastFetchPage = ck.lastFetchPage
}

// touch records m's probe counts as its fold base the first time m is
// touched in the current interval, before the probe that touches it.
func (s *sampState) touch(m *methodRecord) {
	if !m.touched {
		m.touched = true
		m.base = m.probeCounts
		s.touched = append(s.touched, m)
	}
}

// fold extrapolates the finished interval: every touched method's probe
// counts grew by d since its base, once, and gain d·(weight − 1) more. The
// touched slice is append-ordered — no map iteration — so the fold is
// deterministic. Only intervals of weight > 1 touch, so fold is a no-op
// elsewhere and after its first call on an interval.
func (s *sampState) fold() {
	k := uint64(s.weight) - 1
	for _, m := range s.touched {
		m.touched = false
		c, b := &m.probeCounts, &m.base
		c.sMispredicts += (c.sMispredicts - b.sMispredicts) * k
		c.sL2 += (c.sL2 - b.sL2) * k
		c.sLLC += (c.sLLC - b.sLLC) * k
		c.sMem += (c.sMem - b.sMem) * k
		c.sTLBMiss += (c.sTLBMiss - b.sTLBMiss) * k
		c.icMiss += (c.icMiss - b.icMiss) * k
		c.itlbMiss += (c.itlbMiss - b.itlbMiss) * k
	}
	s.touched = s.touched[:0]
}

// sign adds w to x's bucket of the interval signature in a profile pass.
func (s *sampState) sign(x uint64, w uint32) {
	if s.mode == sampProfile {
		s.cur[sigBucket(x)] += w
	}
}

// advanceFetch advances the fetch pointer without probing, through a dead
// interval or a profile pass, so a later live interval resumes at the same code offset the
// exact path would be at.
func advanceFetch(m *methodRecord, n uint64) {
	m.fetchOff = wrapFetch(m.fetchOff+fetchBytes(m, n), m.codeSize)
}
