package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/phase"
)

// probeTarget is one cell the layer probe runs.
type probeTarget struct {
	bench    core.Benchmark
	workload string
	// prod is the production path's measurement of the cell; prodTime its
	// wall time in the traced round, 0 when the round did not execute it
	// (a cache hit).
	prod     report.Measurement
	prodTime time.Duration
}

// layerTotals sums the probe's spans over the cells.
type layerTotals struct {
	cells                                                        int
	prepare, kernel, profile, plan, warm, measure, exact, report time.Duration
	resolveMS                                                    []float64

	events, probes                              uint64 // all events; branches, loads and stores
	mispredicts, l1dMisses, llcMisses, icMisses uint64
	intervals, live                             int
	cyclesErr, topDownErr                       float64 // worst sampled-vs-exact error

	selfTime  time.Duration // production cell time not spent in probed passes
	selfCells int

	perBench map[string]*benchLayers
}

type benchLayers struct{ kernel, bookkeeping, sim, plan time.Duration }

// probe runs every target cell once per pass, calling each layer's public
// functions directly with a span around each call:
//
//	core.ResolveWorkload, core.PrepareOrRun,
//	Execute(nil)                          — the kernel alone,
//	Execute under BeginSampleProfile       — kernel plus event bookkeeping,
//	phase.BuildPlan,
//	Execute under BeginSampleWarm and
//	BeginSampleMeasure                     — the sampled passes,
//	Execute on a fresh profiler            — the exact pass,
//	Profiler.Report.
//
// Bookkeeping is the profile pass minus the kernel pass and simulation is
// the exact pass minus the profile pass, so the three add up to the exact
// pass by construction; the split is only valid if every pass computes the
// same checksum, which the probe checks. The sampled passes run on every
// cell of the sampled workload and on the first cell of each tracked
// benchmark elsewhere.
func probe(ctx context.Context, rec *Recorder, ids *cellIDs, targets []probeTarget, sampledWorkload bool) (layerTotals, error) {
	lt := layerTotals{perBench: map[string]*benchLayers{}}
	for _, name := range tracked {
		lt.perBench[name] = &benchLayers{}
	}
	sampledDone := map[string]bool{}
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			return lt, err
		}
		name := t.bench.Name()
		sampled := sampledWorkload || (lt.perBench[name] != nil && !sampledDone[name])
		sampledDone[name] = true
		if err := probeCell(rec, ids, t, sampled, &lt); err != nil {
			return lt, fmt.Errorf("%s/%s: %w", name, t.workload, err)
		}
		lt.cells++
	}
	return lt, nil
}

func probeCell(rec *Recorder, ids *cellIDs, t probeTarget, sampled bool, lt *layerTotals) error {
	name := t.bench.Name()
	cell := ids.get(cellKey(name, t.workload))
	root := rec.Start("probe.cell", 0, cell)
	defer rec.End(root)

	var err error
	var w core.Workload
	d := timed(rec, "core.resolve", root, cell, func() { w, err = core.ResolveWorkload(t.bench, t.workload) })
	if err != nil {
		return err
	}
	lt.resolveMS = append(lt.resolveMS, d.Seconds()*1e3)

	var pw core.PreparedWorkload
	prepare := timed(rec, "benchmarks.prepare", root, cell, func() { pw, err = core.PrepareOrRun(t.bench, w) })
	if err != nil {
		return err
	}

	var kernelRes, res core.Result
	kernel := timed(rec, "benchmarks.kernel", root, cell, func() { kernelRes, err = pw.Execute(nil) })
	if err != nil {
		return fmt.Errorf("kernel pass: %w", err)
	}
	sum := kernelRes.Checksum
	same := func(pass string, r core.Result) error {
		if r.Checksum != sum {
			return fmt.Errorf("%w: %s pass checksum %x, kernel pass %x", errCheck, pass, r.Checksum, sum)
		}
		return nil
	}

	p := perf.New()
	var sigs []perf.IntervalSignature
	profile := timed(rec, "perf.profile", root, cell, func() {
		if err = p.BeginSampleProfile(perf.DefaultSampleInterval); err != nil {
			return
		}
		if res, err = pw.Execute(p); err != nil {
			return
		}
		sigs, err = p.FinishSampleProfile()
	})
	if err != nil {
		return fmt.Errorf("profile pass: %w", err)
	}
	if err := same("profile", res); err != nil {
		return err
	}

	var plan *perf.SamplePlan
	planTime := timed(rec, "phase.build_plan", root, cell, func() {
		plan, err = phase.BuildPlan(sigs, phase.Config{IntervalOps: perf.DefaultSampleInterval, Phases: phase.DefaultPhases})
	})
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}

	var sampledRpt perf.Report
	var warm, measure time.Duration
	if sampled {
		var ckpts *perf.SampleCheckpoints
		p.Reset()
		warm = timed(rec, "perf.sample_warm", root, cell, func() {
			if err = p.BeginSampleWarm(plan); err != nil {
				return
			}
			if res, err = pw.Execute(p); err != nil {
				return
			}
			ckpts, err = p.FinishSampleWarm()
		})
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		if err := same("warm", res); err != nil {
			return err
		}
		p.Reset()
		measure = timed(rec, "perf.sample_measure", root, cell, func() {
			if err = p.BeginSampleMeasure(plan, ckpts); err != nil {
				return
			}
			res, err = pw.Execute(p)
		})
		if err != nil {
			return fmt.Errorf("measure pass: %w", err)
		}
		if err := same("measure", res); err != nil {
			return err
		}
		sampledRpt = p.Report()
	}

	p = perf.New()
	exact := timed(rec, "perf.exact", root, cell, func() { res, err = pw.Execute(p) })
	if err != nil {
		return fmt.Errorf("exact pass: %w", err)
	}
	if err := same("exact", res); err != nil {
		return err
	}
	var rpt perf.Report
	reportTime := timed(rec, "perf.report", root, cell, func() { rpt = p.Report() })

	// The probe must reproduce what the production path measured.
	want := rpt
	if t.prod.Sampled {
		want = sampledRpt
	}
	if t.prod.Checksum != sum || t.prod.Cycles != want.Cycles || t.prod.TopDown != want.TopDown {
		return fmt.Errorf("%w: probe disagrees with the production measurement (cycles %d vs %d)", errCheck, want.Cycles, t.prod.Cycles)
	}

	lt.prepare += prepare
	lt.kernel += kernel
	lt.profile += profile
	lt.plan += planTime
	lt.warm += warm
	lt.measure += measure
	lt.exact += exact
	lt.report += reportTime
	tot := rpt.Total
	lt.events += tot.Ops + tot.LongOps + tot.Branches + tot.Loads + tot.Stores
	lt.probes += tot.Branches + tot.Loads + tot.Stores
	lt.mispredicts += tot.Mispredicts
	lt.l1dMisses += tot.L2Hits + tot.LLCHits + tot.MemHits
	lt.llcMisses += tot.MemHits
	lt.icMisses += tot.ICMisses
	lt.intervals += plan.Intervals()
	lt.live += plan.LiveIntervals()
	if sampled {
		lt.cyclesErr = math.Max(lt.cyclesErr, cyclesErrPct(sampledRpt.Cycles, rpt.Cycles))
		lt.topDownErr = math.Max(lt.topDownErr, topDownErrPP(sampledRpt.TopDown, rpt.TopDown))
	}
	if t.prodTime > 0 {
		passes := exact
		if t.prod.Sampled {
			passes = profile + planTime + warm + measure
		}
		lt.selfTime += t.prodTime - prepare - passes - reportTime
		lt.selfCells++
	}
	if bl := lt.perBench[t.bench.Name()]; bl != nil {
		bl.kernel += kernel
		bl.bookkeeping += profile - kernel
		bl.sim += exact - profile
		bl.plan += planTime
	}
	return nil
}

// runtimeStats are the Go runtime's numbers over the untraced round.
type runtimeStats struct {
	allocMB, gcCycles, gcPauseS, maxRSSMB, overheadP float64
}

// layerMetrics turns the probe's totals and the traced round into the
// per-layer metrics, in BENCHMARK.json order.
func layerMetrics(lt layerTotals, traced roundStats, rt runtimeStats) []metric {
	n := lt.cells
	bookkeeping := lt.profile - lt.kernel
	sim := lt.exact - lt.profile
	ms := []metric{
		{"benchmarks.prepare_s", lt.prepare.Seconds(), "s", n},
		{"benchmarks.kernel_s", lt.kernel.Seconds(), "s", n},
		{"perf.bookkeeping_s", bookkeeping.Seconds(), "s", n},
		{"uarch.sim_s", sim.Seconds(), "s", n},
		{"perf.report_s", lt.report.Seconds(), "s", n},
		{"perf.events", float64(lt.events), "count", n},
		{"perf.ns_per_event", float64((lt.exact - lt.kernel).Nanoseconds()) / float64(lt.events), "ns", n},
		{"uarch.ns_per_event", float64(sim.Nanoseconds()) / float64(lt.probes), "ns", n},
		{"uarch.mispredicts", float64(lt.mispredicts), "count", n},
		{"uarch.l1d_misses", float64(lt.l1dMisses), "count", n},
		{"uarch.llc_misses", float64(lt.llcMisses), "count", n},
		{"uarch.icache_misses", float64(lt.icMisses), "count", n},
		{"phase.build_plan_s", lt.plan.Seconds(), "s", n},
		{"phase.intervals", float64(lt.intervals), "count", n},
		{"phase.live_fraction", float64(lt.live) / float64(lt.intervals), "ratio", n},
		{"perf.sample_warm_s", lt.warm.Seconds(), "s", n},
		{"perf.sample_measure_s", lt.measure.Seconds(), "s", n},
		{"phase.cycles_err_pct", lt.cyclesErr, "%", n},
		{"phase.topdown_err_pp", lt.topDownErr, "pp", n},
		{"core.resolve_ms_mean", mean(lt.resolveMS), "ms", len(lt.resolveMS)},
		{"core.resolve_ms_max", quantile(lt.resolveMS, 1), "ms", len(lt.resolveMS)},
		{"harness.cells", float64(traced.cells), "count", 1},
		{"harness.self_s", lt.selfTime.Seconds(), "s", lt.selfCells},
		{"report.build_s", traced.build.Seconds(), "s", 1},
		{"report.encode_s", traced.encode.Seconds(), "s", 1},
		{"report.envelope_bytes", float64(traced.docBytes), "bytes", 1},
		{"runtime.alloc_mb", rt.allocMB, "MB", 1},
		{"runtime.gc_cycles", rt.gcCycles, "count", 1},
		{"runtime.gc_pause_s", rt.gcPauseS, "s", 1},
		{"runtime.max_rss_mb", rt.maxRSSMB, "MB", 1},
		{"trace.overhead_pct", rt.overheadP, "%", 1},
	}
	for _, name := range tracked {
		bl := lt.perBench[name]
		ms = append(ms,
			metric{"benchmarks.kernel_s." + name, bl.kernel.Seconds(), "s", n},
			metric{"perf.bookkeeping_s." + name, bl.bookkeeping.Seconds(), "s", n},
			metric{"uarch.sim_s." + name, bl.sim.Seconds(), "s", n},
			metric{"phase.build_plan_s." + name, bl.plan.Seconds(), "s", n},
		)
	}
	return ms
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
