// Command bench is the repository benchmark. It drives one of four
// workloads through the public entry points a user of the reproduction
// touches — the harness runner, the sweep accumulator and albertad's HTTP
// handler — checks that their outputs are correct, and prints every metric
// with its unit and sample count. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that times each layer's public functions from
// outside and prints the per-layer metrics. bench/README.md describes the
// workloads, the metrics and their regression bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    string
	smoke    bool
	update   bool
	golden   string
}

// minRounds is the fewest measured rounds a run takes, so that every
// round-level metric is a median of at least three samples.
func (o options) minRounds() int {
	if o.smoke {
		return 2
	}
	return 3
}

// instance is one set-up workload, ready to run rounds: fixed units of
// measured work that repeat until the run's time is up.
type instance interface {
	// round runs one unit of the workload's work. rec is nil with tracing
	// off.
	round(ctx context.Context, rec *Recorder, ids *cellIDs) (roundStats, error)
	// setupDigest summarizes any output the set-up itself produced, so
	// repeated set-ups can be checked against each other; "" when none.
	setupDigest() string
	// check verifies the outputs of the rounds against each other and the
	// golden outputs (or rewrites the golden outputs with -update-golden).
	check(ctx context.Context, o options, rounds []roundStats, out io.Writer) error
	// probeTargets lists the cells the traced run probes layer by layer,
	// with their production-path measurements from the last round.
	probeTargets() []probeTarget
	close()
}

// setups maps each workload name to its set-up.
var setups = map[string]func(context.Context, options) (instance, error){
	"suite":   newSuite,
	"sampled": newSampled,
	"sweep":   newSweep,
	"serve":   newServe,
}

// roundStats is what one round measured.
type roundStats struct {
	wall time.Duration
	// throughput is the round's work per second (see README: cells,
	// requests, or modeled milliseconds for the sweep).
	throughput float64
	// items are per-item latencies in milliseconds (per modeled
	// millisecond for the sweep).
	items             []float64
	attempted, failed int
	// failure is the first failed cell's or request's error.
	failure error
	// digest summarizes the round's deterministic output.
	digest string
	// doc times the round's result document.
	build, encode time.Duration
	docBytes      int
	// cells is the number of cells the round executed.
	cells int
}

// metric is one printed metric.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit code: 0 for a correct
// run, 1 when an output check failed (the result is still printed), 2 when
// the run could not be carried out (nothing is printed).
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := execute(context.Background(), o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: suite, sweep, sampled or serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&seconds, "seconds", 25, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	fs.BoolVar(&o.smoke, "smoke", false, "run the workload in tiny form (tests)")
	fs.BoolVar(&o.update, "update-golden", false, "rewrite the golden outputs from this run")
	fs.StringVar(&o.golden, "golden", "bench/golden", "directory of the golden outputs")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := setups[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want suite, sweep, sampled or serve)", o.workload)
	}
	if seconds < 0 {
		return o, fmt.Errorf("-seconds must be >= 0")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.spans != "" && trace == 0 {
		return o, fmt.Errorf("-spans needs -trace 1")
	}
	if o.update && o.smoke {
		return o, fmt.Errorf("-update-golden records full-size outputs; drop -smoke")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	return o, nil
}

func execute(ctx context.Context, o options, stdout, stderr io.Writer) (result, error) {
	if o.trace {
		return executeTraced(ctx, o, stdout, stderr)
	}
	setupTimes, inst, err := setUp(ctx, o)
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	rounds, err := measure(ctx, o, inst)
	if err != nil {
		return result{}, err
	}
	res := newResult(rounds, stderr)
	var items []float64
	var through []float64
	for _, r := range rounds {
		items = append(items, r.items...)
		through = append(through, r.throughput)
	}
	// Per-item latency is printed but not bounded: on the sweep its
	// percentiles move with the seed's mix of input sizes, and the serve
	// median is a sub-millisecond loopback round trip that swings with the
	// host's load.
	for _, m := range []metric{
		{"latency_p50_ms", quantile(items, 0.5), "ms", len(items)},
		{"latency_p90_ms", quantile(items, 0.9), "ms", len(items)},
	} {
		fmt.Fprintf(stdout, "info %-31s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	metrics := []metric{
		{"setup_s", median(setupTimes), "s", len(setupTimes)},
		{"throughput", median(through), "1/s", len(through)},
	}
	return finish(ctx, o, inst, rounds, res, metrics, stdout, stderr)
}

// setUp sets the workload up several times, keeping the last instance and
// every set-up's duration: at least three times, and (except with -smoke)
// up to a hundred while they take under two seconds together, so that a
// set-up of a few milliseconds still yields a steady median. Each starts
// from a collected heap, as a fresh process would.
func setUp(ctx context.Context, o options) ([]float64, instance, error) {
	var times []float64
	var inst instance
	var digest string
	var total time.Duration
	for len(times) < 3 || (!o.smoke && len(times) < 100 && total < 2*time.Second) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		next, err := setups[o.workload](ctx, o)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		if len(times) == 0 {
			digest = next.setupDigest()
		} else if next.setupDigest() != digest {
			next.close()
			return nil, nil, fmt.Errorf("%s: set-up %d produced different outputs than set-up 1", o.workload, len(times)+1)
		}
		inst = next
		times = append(times, d.Seconds())
		total += d
	}
	return times, inst, nil
}

// measure runs rounds until the run's time is up: it starts another round
// only while that round is expected to end within -seconds, and always
// runs minRounds. It stops early at the first failed cell or request.
func measure(ctx context.Context, o options, inst instance) ([]roundStats, error) {
	ids := newCellIDs()
	var rounds []roundStats
	start := time.Now()
	for {
		r, err := inst.round(ctx, nil, ids)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		if r.failed > 0 {
			return rounds, nil
		}
		elapsed := time.Since(start)
		perRound := elapsed / time.Duration(len(rounds))
		if len(rounds) >= o.minRounds() && elapsed+perRound > o.seconds {
			return rounds, nil
		}
	}
}

func newResult(rounds []roundStats, stderr io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.failure != nil {
			fmt.Fprintln(stderr, "bench:", r.failure)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

// finish checks the outputs, prints the metrics and fills the result.
func finish(ctx context.Context, o options, inst instance, rounds []roundStats, res result, metrics []metric, stdout, stderr io.Writer) (result, error) {
	if res.Correct {
		if err := inst.check(ctx, o, rounds, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: output check failed: %v\n", o.workload, err)
			res.Correct = false
		}
	} else {
		fmt.Fprintf(stderr, "bench: %s: %d of %d attempted cells or requests failed\n", o.workload, res.Failed, res.Attempted)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			if res.Correct {
				return res, fmt.Errorf("metric %s is %v", m.name, m.value)
			}
			continue // a failed run can leave a metric undefined
		}
		fmt.Fprintf(stdout, "%-36s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// executeTraced is the traced run: one untraced round as the reference,
// one traced round with spans around every call the production path makes
// into a layer, then the layer probe over the round's cells.
func executeTraced(ctx context.Context, o options, stdout, stderr io.Writer) (result, error) {
	inst, err := setups[o.workload](ctx, o)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	defer inst.close()
	ids := newCellIDs()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := inst.round(ctx, nil, ids)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&after)

	rec := NewRecorder()
	traced, err := inst.round(ctx, rec, ids)
	if err != nil {
		return result{}, err
	}
	rounds := []roundStats{plain, traced}
	res := newResult(rounds, stderr)

	var lt layerTotals
	if res.Correct {
		lt, err = probe(ctx, rec, ids, inst.probeTargets(), o.workload == "sampled")
		res.Attempted += lt.cells
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: layer probe: %v\n", o.workload, err)
			res.Correct = false
			res.Failed++
		}
	}

	rt := runtimeStats{
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
		maxRSSMB:  maxRSSMB(),
		overheadP: (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds() * 100,
	}
	metrics := layerMetrics(lt, traced, rt)

	self := rec.SelfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "self %-31s %16.6g s\n", name, self[name].Seconds())
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, rec); err != nil {
			return result{}, err
		}
	}
	return finish(ctx, o, inst, rounds, res, metrics, stdout, stderr)
}

func writeSpans(path string, rec *Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// errCheck marks an output that disagrees with the expected output.
var errCheck = errors.New("output mismatch")
