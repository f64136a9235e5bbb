package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// tracked are the benchmarks the per-layer metrics also break down one by
// one. They are the sampled workload's benchmarks, so every workload runs
// cells of each: mcf, omnetpp and xz are where simulation dominates,
// povray is where phase planning costs most, and leela is most of the
// suite's wall time.
var tracked = []string{"505.mcf_r", "511.povray_r", "520.omnetpp_r", "541.leela_r", "557.xz_r"}

// smokeBenchmarks are the cheapest generator-capable benchmarks; the
// -smoke forms of suite, sweep and serve use only these.
var smokeBenchmarks = []string{"502.gcc_r", "526.blender_r", "544.nab_r"}

// cellKey names a cell.
func cellKey(benchmark, workload string) string { return benchmark + "/" + workload }

// cellIDs hands out one span cell id per cell, shared by the production
// path and the layer probe.
type cellIDs struct {
	mu  sync.Mutex
	ids map[string]int
}

func newCellIDs() *cellIDs { return &cellIDs{ids: map[string]int{}} }

func (c *cellIDs) get(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.ids[key]
	if !ok {
		id = len(c.ids) + 1
		c.ids[key] = id
	}
	return id
}

// timed runs fn inside a span and returns its duration; rec may be nil.
func timed(rec *Recorder, name string, parent, cell int, fn func()) time.Duration {
	id := rec.Start(name, parent, cell)
	start := time.Now()
	fn()
	d := time.Since(start)
	rec.End(id)
	return d
}

// cellClock times each cell of a harness run from its Progress events and
// opens a span per cell. The runner serializes Progress calls.
type cellClock struct {
	rec    *Recorder
	ids    *cellIDs
	parent int
	open   map[string]openCell
	times  map[string]time.Duration
	order  []string
}

type openCell struct {
	start time.Time
	span  int
}

func newCellClock(rec *Recorder, ids *cellIDs, parent int) *cellClock {
	return &cellClock{rec: rec, ids: ids, parent: parent, open: map[string]openCell{}, times: map[string]time.Duration{}}
}

func (c *cellClock) progress(e harness.Event) {
	key := cellKey(e.Benchmark, e.Workload)
	if e.Kind == harness.EventWorkloadStart {
		c.open[key] = openCell{start: time.Now(), span: c.rec.Start("harness.cell", c.parent, c.ids.get(key))}
		return
	}
	oc := c.open[key]
	c.times[key] = time.Since(oc.start)
	c.order = append(c.order, key)
	c.rec.End(oc.span)
}

// itemsMS returns the cell times in completion order, in milliseconds.
func (c *cellClock) itemsMS() []float64 {
	out := make([]float64, len(c.order))
	for i, key := range c.order {
		out[i] = c.times[key].Seconds() * 1e3
	}
	return out
}

// failures counts the failed cells behind a harness error; any other
// error is returned as is.
func failures(st *roundStats, err error) error {
	var runErr *harness.RunError
	if errors.As(err, &runErr) {
		st.failed, st.failure = len(runErr.Failures), runErr
		return nil
	}
	return err
}

// batch is a characterization run over a fixed plan: the suite workload
// (exact mode) and the sampled workload (phase-sampled mode).
type batch struct {
	name  string
	units []harness.Unit
	opts  harness.Options
	cfg   report.RunConfig

	// The last round's measurements and result document.
	last    report.Results
	lastDoc []byte
	times   map[string]time.Duration
}

// suiteExtras are the Alberta inputs the suite workload adds to the SPEC
// pair: two mid-sized Go games. In the full Table II inventory leela is
// about two thirds of the time, almost all of it in its own kernel; these
// keep that true of the suite workload.
var suiteExtras = []string{"541.leela_r/alberta.5", "541.leela_r/alberta.8"}

// newSuite is the suite workload: the SPEC train and refrate inputs of
// every Table II benchmark plus suiteExtras, characterized exactly with one
// repetition on one worker, then the all-sections envelope. The seed is
// unused: the paper's inventory is fixed.
func newSuite(_ context.Context, o options) (instance, error) {
	s, err := benchmarks.CharacterizedSuite()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, b := range s.Benchmarks() {
		names = append(names, b.Name())
	}
	extras := suiteExtras
	if o.smoke {
		names, extras = smokeBenchmarks[:2], nil
	}
	units, err := specInputs(s, names)
	if err != nil {
		return nil, err
	}
	for _, key := range extras {
		bench, workload, _ := strings.Cut(key, "/")
		b, ok := s.Lookup(bench)
		if !ok {
			return nil, fmt.Errorf("no benchmark %s", bench)
		}
		w, err := core.FindWorkload(b, workload)
		if err != nil {
			return nil, err
		}
		units = append(units, harness.Unit{Benchmark: b, Workload: w})
	}
	return newBatch("suite", units, harness.Options{Reps: 1, Workers: 1})
}

// newSampled is the sampled workload: the SPEC train and refrate inputs of
// the tracked benchmarks in phase-sampled mode, with three executions per
// cell (profile, warm, one measure pass).
func newSampled(_ context.Context, o options) (instance, error) {
	s, err := benchmarks.CharacterizedSuite()
	if err != nil {
		return nil, err
	}
	names := tracked
	if o.smoke {
		names = []string{"511.povray_r"}
	}
	units, err := specInputs(s, names)
	if err != nil {
		return nil, err
	}
	return newBatch("sampled", units, harness.Options{Reps: 3, Workers: 1, Sampled: true})
}

// specInputs returns the first train and the first refrate input of each
// named benchmark.
func specInputs(s *core.Suite, names []string) ([]harness.Unit, error) {
	var units []harness.Unit
	for _, name := range names {
		b, ok := s.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("no benchmark %s", name)
		}
		for _, kind := range []core.Kind{core.KindTrain, core.KindRefrate} {
			ws, err := core.WorkloadsOfKind(b, kind)
			if err != nil {
				return nil, err
			}
			if len(ws) == 0 {
				return nil, fmt.Errorf("%s has no %s input", name, kind)
			}
			units = append(units, harness.Unit{Benchmark: b, Workload: ws[0]})
		}
	}
	return units, nil
}

func newBatch(name string, units []harness.Unit, opts harness.Options) (*batch, error) {
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	return &batch{name: name, units: units, opts: opts, cfg: norm.ReportConfig()}, nil
}

func (b *batch) setupDigest() string { return "" }
func (b *batch) close()              {}

func (b *batch) round(ctx context.Context, rec *Recorder, ids *cellIDs) (roundStats, error) {
	st := roundStats{attempted: len(b.units), cells: len(b.units)}
	root := rec.Start("round", 0, 0)
	defer rec.End(root)
	start := time.Now()

	run := rec.Start("harness.run", root, 0)
	clock := newCellClock(rec, ids, run)
	opts := b.opts
	opts.Progress = clock.progress
	res, err := harness.NewPlanRunner(b.units, opts).Run(ctx)
	rec.End(run)
	if err := failures(&st, err); err != nil {
		return st, err
	}
	if st.failed > 0 {
		return st, nil
	}

	var env *report.Suite
	st.build = timed(rec, "report.build", root, 0, func() {
		env, err = report.Build(res, b.cfg, report.BuildOptions{Sections: report.AllSections()})
	})
	if err != nil {
		return st, fmt.Errorf("%s: building the envelope: %w", b.name, err)
	}
	var data []byte
	st.encode = timed(rec, "report.encode", root, 0, func() { data, err = env.Encode() })
	if err != nil {
		return st, fmt.Errorf("%s: encoding the envelope: %w", b.name, err)
	}
	st.wall = time.Since(start)
	st.docBytes = len(data)
	st.throughput = float64(len(b.units)) / st.wall.Seconds()
	st.items = clock.itemsMS()

	doc, err := suiteDocument(env)
	if err != nil {
		return st, err
	}
	st.digest = digest(doc)
	b.last, b.lastDoc, b.times = res, doc, clock.times
	return st, nil
}

func (b *batch) probeTargets() []probeTarget {
	byCell := map[string]report.Measurement{}
	for _, ms := range b.last {
		for _, m := range ms {
			byCell[cellKey(m.Benchmark, m.Workload)] = m
		}
	}
	return unitTargets(b.units, byCell, b.times)
}

// unitTargets lists a plan's cells, in plan order, for the layer probe.
func unitTargets(units []harness.Unit, prod map[string]report.Measurement, times map[string]time.Duration) []probeTarget {
	out := make([]probeTarget, 0, len(units))
	for _, u := range units {
		key := cellKey(u.Benchmark.Name(), u.Workload.WorkloadName())
		out = append(out, probeTarget{bench: u.Benchmark, workload: u.Workload.WorkloadName(), prod: prod[key], prodTime: times[key]})
	}
	return out
}

func (b *batch) check(_ context.Context, o options, rounds []roundStats, out io.Writer) error {
	if err := sameDigests(rounds); err != nil {
		return err
	}
	g := goldenStore{dir: o.golden}
	if b.name == "suite" && o.update {
		return g.writeSuite(b.lastDoc)
	}
	want, err := g.suite()
	if err != nil {
		return err
	}
	if b.name == "suite" && !o.smoke {
		if !bytes.Equal(want, b.lastDoc) {
			return fmt.Errorf("%w: the suite envelope differs from %s (%s)", errCheck, g.path(goldenSuite), firstDifference(want, b.lastDoc))
		}
		fmt.Fprintf(out, "suite envelope matches %s (digest %s)\n", g.path(goldenSuite), rounds[0].digest)
		return nil
	}
	exact, err := goldenMeasurements(want)
	if err != nil {
		return err
	}
	if b.name == "suite" {
		return compareCells(b.last, exact)
	}
	if err := sampledAccuracy(b.last, exact, out); err != nil {
		return err
	}
	if o.smoke {
		return nil
	}
	return g.checkDigest("sampled", rounds[0].digest, o.update, out)
}

// compareCells checks every measurement against the golden one of the
// same cell, wall time aside.
func compareCells(got report.Results, want map[string]report.Measurement) error {
	for _, ms := range got {
		for _, m := range ms {
			w, ok := want[cellKey(m.Benchmark, m.Workload)]
			if !ok {
				return fmt.Errorf("%w: %s/%s is not in the golden envelope", errCheck, m.Benchmark, m.Workload)
			}
			a, _ := json.Marshal(zeroWall(m))
			e, _ := json.Marshal(w)
			if !bytes.Equal(a, e) {
				return fmt.Errorf("%w: %s/%s differs from the golden measurement", errCheck, m.Benchmark, m.Workload)
			}
		}
	}
	return nil
}

// sampledAccuracy checks each sampled measurement against the exact golden
// measurement of its cell: the checksum must match (sampling never changes
// what the benchmark computes), and the cycle and top-down errors are
// printed.
func sampledAccuracy(got report.Results, exact map[string]report.Measurement, out io.Writer) error {
	var worstCycles, worstTD float64
	for _, ms := range got {
		for _, m := range ms {
			e, ok := exact[cellKey(m.Benchmark, m.Workload)]
			if !ok {
				return fmt.Errorf("%w: no exact golden measurement for %s/%s", errCheck, m.Benchmark, m.Workload)
			}
			if m.Checksum != e.Checksum {
				return fmt.Errorf("%w: %s/%s: sampled checksum %x, exact %x", errCheck, m.Benchmark, m.Workload, m.Checksum, e.Checksum)
			}
			worstCycles = math.Max(worstCycles, cyclesErrPct(m.Cycles, e.Cycles))
			worstTD = math.Max(worstTD, topDownErrPP(m.TopDown, e.TopDown))
		}
	}
	fmt.Fprintf(out, "sampled error against the exact golden: cycles %.4f%%, top-down %.4f pp\n", worstCycles, worstTD)
	return nil
}

// sweepRun is the sweep workload: generated workloads streamed through the
// harness into a sweep.Accumulator, then the representative selection.
type sweepRun struct {
	cfg   sweep.Config
	units []harness.Unit
	opts  harness.Options
	run   report.RunConfig

	last  map[string]report.Measurement
	times map[string]time.Duration
}

// newSweep generates PerBenchmark workloads from the seed for each of the
// 16 generator-capable benchmarks (sweep.Plan) and keeps K
// representatives of each.
func newSweep(_ context.Context, o options) (instance, error) {
	s, err := benchmarks.CharacterizedSuite()
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{PerBenchmark: 3, K: 2, Seed: o.seed}
	if o.smoke {
		cfg = sweep.Config{Benchmarks: smokeBenchmarks, PerBenchmark: 2, K: 1, Seed: o.seed}
	}
	cfg, err = cfg.Normalize(s)
	if err != nil {
		return nil, err
	}
	units, err := sweep.Plan(s, cfg)
	if err != nil {
		return nil, err
	}
	opts := harness.Options{Reps: 1, Workers: 1}
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	return &sweepRun{cfg: cfg, units: units, opts: opts, run: norm.ReportConfig()}, nil
}

func (s *sweepRun) setupDigest() string { return "" }
func (s *sweepRun) close()              {}

func (s *sweepRun) round(ctx context.Context, rec *Recorder, ids *cellIDs) (roundStats, error) {
	st := roundStats{attempted: len(s.units), cells: len(s.units)}
	root := rec.Start("round", 0, 0)
	defer rec.End(root)
	start := time.Now()

	run := rec.Start("harness.run", root, 0)
	clock := newCellClock(rec, ids, run)
	opts := s.opts
	opts.Progress = clock.progress
	acc := sweep.NewAccumulator(s.cfg)
	last := map[string]report.Measurement{}
	err := harness.NewPlanRunner(s.units, opts).Stream(ctx, func(c harness.Cell, m report.Measurement) error {
		key := cellKey(c.Benchmark, c.Workload)
		timed(rec, "sweep.accumulate", run, ids.get(key), func() { acc.Add(c.Index, m) })
		last[key] = m
		return nil
	})
	rec.End(run)
	if err := failures(&st, err); err != nil {
		return st, err
	}
	if st.failed > 0 {
		return st, nil
	}

	var rep *sweep.Report
	st.build = timed(rec, "report.build", root, 0, func() { rep, err = acc.Report(s.run) })
	if err != nil {
		return st, fmt.Errorf("sweep: reducing: %w", err)
	}
	var data []byte
	st.encode = timed(rec, "report.encode", root, 0, func() { data, err = json.Marshal(rep) })
	if err != nil {
		return st, fmt.Errorf("sweep: encoding the report: %w", err)
	}
	st.wall = time.Since(start)
	st.docBytes = len(data)

	// Generated inputs vary in size by more than tenfold from seed to
	// seed, so the sweep counts work in modeled milliseconds, and the
	// per-benchmark rates are averaged geometrically so the seed's mix of
	// large and small inputs cancels out.
	hostS := map[string]float64{}
	modeledMS := map[string]float64{}
	var cellHost float64
	for key, m := range last {
		host := clock.times[key].Seconds()
		hostS[m.Benchmark] += host
		modeledMS[m.Benchmark] += m.ModeledSeconds * 1e3
		cellHost += host
		st.items = append(st.items, host*1e3/(m.ModeledSeconds*1e3))
	}
	var logRate float64
	for name, h := range hostS {
		logRate += math.Log(modeledMS[name] / h)
	}
	st.throughput = math.Exp(logRate/float64(len(hostS))) * cellHost / st.wall.Seconds()

	// The digested report leaves out the run configuration, as
	// suiteDocument does.
	doc, err := json.Marshal(struct {
		Seed         int64                  `json:"seed"`
		PerBenchmark int                    `json:"per_benchmark"`
		K            int                    `json:"k"`
		Features     string                 `json:"features"`
		Benchmarks   []sweep.BenchmarkSweep `json:"benchmarks"`
	}{rep.Seed, rep.PerBenchmark, rep.K, rep.Features, rep.Benchmarks})
	if err != nil {
		return st, err
	}
	st.digest = digest(doc)
	s.last, s.times = last, clock.times
	return st, nil
}

func (s *sweepRun) probeTargets() []probeTarget { return unitTargets(s.units, s.last, s.times) }

func (s *sweepRun) check(_ context.Context, o options, rounds []roundStats, out io.Writer) error {
	if err := sameDigests(rounds); err != nil {
		return err
	}
	if o.smoke {
		return nil
	}
	return goldenStore{dir: o.golden}.checkSeedDigest("sweep", o.seed, rounds[0].digest, o.update, out)
}

// sameDigests checks that every round produced the same output.
func sameDigests(rounds []roundStats) error {
	for i, r := range rounds[1:] {
		if r.digest != rounds[0].digest {
			return fmt.Errorf("%w: round %d output differs from round 1 (nondeterministic)", errCheck, i+2)
		}
	}
	return nil
}

// suiteDocument is the deterministic part of an envelope: every section
// with wall times zeroed, and without the run configuration, whose
// stride and reference fields are slated for removal.
func suiteDocument(env *report.Suite) ([]byte, error) {
	ms := report.Results{}
	for name, list := range env.Measurements {
		for _, m := range list {
			ms[name] = append(ms[name], zeroWall(m))
		}
	}
	doc, err := json.MarshalIndent(struct {
		Benchmarks   []string                `json:"benchmarks"`
		Measurements report.Results          `json:"measurements"`
		Table1       []report.TableIRow      `json:"table1"`
		Table2       []report.TableIIRow     `json:"table2"`
		Figure1      []report.FigureSeries   `json:"figure1"`
		Figure2      []report.CoverageSeries `json:"figure2"`
		Kernels      []report.KernelRow      `json:"kernels"`
	}{env.Benchmarks, ms, env.Table1, env.Table2, env.Figure1, env.Figure2, env.Kernels}, "", " ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// goldenMeasurements indexes the measurements of a golden suite document
// by cell.
func goldenMeasurements(doc []byte) (map[string]report.Measurement, error) {
	var d struct {
		Measurements report.Results `json:"measurements"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("reading the golden envelope: %w", err)
	}
	out := map[string]report.Measurement{}
	for _, ms := range d.Measurements {
		for _, m := range ms {
			out[cellKey(m.Benchmark, m.Workload)] = m
		}
	}
	return out, nil
}

func zeroWall(m report.Measurement) report.Measurement {
	m.WallSeconds = 0
	return m
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// firstDifference describes where two documents first differ.
func firstDifference(want, got []byte) string {
	line := 1
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("first difference on line %d", line)
		}
		if want[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(want), len(got))
}

func cyclesErrPct(sampled, exact uint64) float64 {
	return math.Abs(float64(sampled)-float64(exact)) / float64(exact) * 100
}

func topDownErrPP(a, b stats.TopDown) float64 {
	d := math.Max(math.Abs(a.FrontEnd-b.FrontEnd), math.Abs(a.BackEnd-b.BackEnd))
	d = math.Max(d, math.Abs(a.BadSpec-b.BadSpec))
	return math.Max(d, math.Abs(a.Retiring-b.Retiring)) * 100
}
