// Package sweep is the workload-space sweep subsystem: it drives the
// generators to mint N workloads per benchmark (the paper's Section IV
// pitch — as many workloads as the researcher needs), streams every cell
// through the harness without retaining measurements, clusters the
// behaviour vectors incrementally, and selects a minimal representative
// subset per benchmark with a quantified coverage loss (the
// redundancy-reduction methodology of Shaccour & Mansour).
//
// The package is shared by both sweep frontends — cmd/albertasweep and
// the service's POST /v1/sweeps — so the two paths select byte-identical
// representative subsets for the same plan by construction: the plan
// enumeration, the accumulation order, and the k-medoids reduction all
// live here, and every order-sensitive step is keyed by plan index, never
// by completion order.
package sweep

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fdo"
	"repro/internal/harness"
	"repro/internal/harness/report"
)

// ErrSweep reports an invalid sweep configuration.
var ErrSweep = errors.New("sweep: invalid configuration")

// Config describes one sweep: which benchmarks, how many generated
// workloads each, and how the representative subset is selected.
type Config struct {
	// Benchmarks are the benchmark names to sweep; every one must be
	// generator-capable. Empty means every generator-capable benchmark in
	// the suite.
	Benchmarks []string
	// PerBenchmark is the number of workloads generated per benchmark
	// (default 16).
	PerBenchmark int
	// Seed feeds the workload generators; the same seed always mints the
	// same workloads (core.Generator's determinism contract).
	Seed int64
	// K is the number of representatives kept per benchmark (default 3,
	// clamped to PerBenchmark).
	K int
	// Features picks the clustering embedding (default FeaturesCombined:
	// top-down + coverage, the paper's behaviour characterization).
	Features cluster.Features
	// ClusterSeed perturbs the k-medoids initialization (0 = canonical).
	ClusterSeed int64
}

// Normalize validates the config against the suite and fills defaults.
// The benchmark list comes back sorted — plan order is sorted-benchmark ×
// generation-index order, the order both frontends share.
func (c Config) Normalize(suite *core.Suite) (Config, error) {
	if c.PerBenchmark == 0 {
		c.PerBenchmark = 16
	}
	if c.PerBenchmark < 1 {
		return Config{}, fmt.Errorf("%w: per_benchmark must be >= 1 (got %d)", ErrSweep, c.PerBenchmark)
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.K < 1 {
		return Config{}, fmt.Errorf("%w: k must be >= 1 (got %d)", ErrSweep, c.K)
	}
	if c.K > c.PerBenchmark {
		c.K = c.PerBenchmark
	}
	if len(c.Benchmarks) == 0 {
		for _, b := range suite.Benchmarks() {
			if _, ok := b.(core.Generator); ok {
				c.Benchmarks = append(c.Benchmarks, b.Name())
			}
		}
		if len(c.Benchmarks) == 0 {
			return Config{}, fmt.Errorf("%w: suite has no generator-capable benchmarks", ErrSweep)
		}
	} else {
		c.Benchmarks = append([]string(nil), c.Benchmarks...)
		seen := map[string]bool{}
		for _, name := range c.Benchmarks {
			b, ok := suite.Lookup(name)
			if !ok {
				return Config{}, fmt.Errorf("%w: unknown benchmark %q", ErrSweep, name)
			}
			if _, ok := b.(core.Generator); !ok {
				return Config{}, fmt.Errorf("%w: %s cannot generate workloads", ErrSweep, name)
			}
			if seen[name] {
				return Config{}, fmt.Errorf("%w: duplicate benchmark %q", ErrSweep, name)
			}
			seen[name] = true
		}
	}
	sort.Strings(c.Benchmarks)
	return c, nil
}

// Options is the cluster option set a normalized config implies; it is
// applied per benchmark with K clamped to the accumulated point count.
func (c Config) Options() cluster.Options {
	return cluster.Options{K: c.K, Features: c.Features, Seed: c.ClusterSeed}
}

// Plan enumerates the sweep's cells: for each benchmark (sorted), the
// PerBenchmark generated workloads of Seed, in generation-index order.
// Cell index i of the plan is the identity every consumer keys on. The
// config must be normalized.
func Plan(suite *core.Suite, cfg Config) ([]harness.Unit, error) {
	var units []harness.Unit
	for _, name := range cfg.Benchmarks {
		b, ok := suite.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown benchmark %q", ErrSweep, name)
		}
		gen, ok := b.(core.Generator)
		if !ok {
			return nil, fmt.Errorf("%w: %s cannot generate workloads", ErrSweep, name)
		}
		ws, err := core.GenerateWorkloads(gen, cfg.Seed, cfg.PerBenchmark)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: generating %d workloads: %w", name, cfg.PerBenchmark, err)
		}
		for _, w := range ws {
			units = append(units, harness.Unit{Benchmark: b, Workload: w})
		}
	}
	return units, nil
}

// row is the compact per-cell state the accumulator retains: the
// benchmark name and the measurement's behaviour point — never the
// measurement itself.
type row struct {
	benchmark string
	point     cluster.Point
}

// Accumulator folds streamed cells into per-benchmark feature spaces and
// summaries. Add is keyed by plan index, so the eventual selection is a
// pure function of the plan — independent of completion order, worker
// count, and of which frontend (CLI or service) delivered the cells. It
// retains one compact row and one report.Builder row per cell; the
// Measurement handed to Add is released when the call returns.
//
// The Accumulator is not safe for concurrent use; streaming callers
// already serialize sink deliveries (harness.Sink's contract) or hold
// their own lock.
type Accumulator struct {
	cfg     Config
	compact *cluster.FeatureSpace // embedding prototype: Compact only
	rows    map[int]row
	builder *report.Builder
	total   int
}

// NewAccumulator returns an empty accumulator for a normalized config.
func NewAccumulator(cfg Config) *Accumulator {
	return &Accumulator{
		cfg:     cfg,
		compact: cluster.NewFeatureSpace(cfg.Features),
		rows:    map[int]row{},
		builder: report.NewBuilder(),
	}
}

// Add records the cell at plan position index.
func (a *Accumulator) Add(index int, m report.Measurement) {
	a.rows[index] = row{benchmark: m.Benchmark, point: a.compact.Compact(m)}
	a.builder.Add(index, m)
	if index+1 > a.total {
		a.total = index + 1
	}
}

// Len is the number of cells recorded.
func (a *Accumulator) Len() int { return len(a.rows) }

// BenchmarkSweep is one benchmark's reduction: the selected
// representative workloads and what dropping the rest costs.
type BenchmarkSweep struct {
	Benchmark string `json:"benchmark"`
	// Cells is the number of swept workloads; K the representatives kept.
	Cells int `json:"cells"`
	K     int `json:"k"`
	// Representatives are the selected workload names, in medoid order.
	Representatives []string `json:"representatives"`
	// Clusters lists each representative's member workloads (the
	// representative included), in medoid order.
	Clusters []Cluster `json:"clusters"`
	// Cost is the k-medoids objective (total point-to-medoid distance).
	Cost float64 `json:"cost"`
	// CoverageLoss quantifies the reduction: max and mean distance of the
	// dropped workloads to their retained representative.
	CoverageLoss cluster.CoverageLoss `json:"coverage_loss"`
	// Summary is the deterministic fold over the benchmark's cells
	// (counts, cycle aggregates, chained checksum) — the sweep's
	// cross-frontend determinism witness.
	Summary report.BenchSummary `json:"summary"`
}

// Cluster is one selected representative and its members.
type Cluster struct {
	Representative string   `json:"representative"`
	Members        []string `json:"members"`
}

// Report is the sweep result document both frontends emit.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Seed, PerBenchmark, K, Features and ClusterSeed echo the normalized
	// sweep configuration; Config echoes the measurement configuration.
	Seed         int64            `json:"seed"`
	PerBenchmark int              `json:"per_benchmark"`
	K            int              `json:"k"`
	Features     string           `json:"features"`
	ClusterSeed  int64            `json:"cluster_seed,omitempty"`
	Config       report.RunConfig `json:"config"`

	Benchmarks []BenchmarkSweep `json:"benchmarks"`

	// FDO, when present, is the hidden-learning study over the selected
	// subsets (cmd/albertasweep -fdo).
	FDO []fdo.ScaleStudy `json:"fdo,omitempty"`
}

// Report reduces everything accumulated: per benchmark (in plan order),
// the points feed a feature space in plan-index order and k-medoids
// selects the representatives. Missing cells (a canceled or failed sweep)
// are an error — a partial reduction would silently misrepresent the
// workload space.
func (a *Accumulator) Report(runCfg report.RunConfig) (*Report, error) {
	type benchAcc struct {
		name string
		fs   *cluster.FeatureSpace
	}
	var order []*benchAcc
	byName := map[string]*benchAcc{}
	for idx := 0; idx < a.total; idx++ {
		r, ok := a.rows[idx]
		if !ok {
			return nil, fmt.Errorf("sweep: cell %d of %d was never delivered (canceled or failed sweep)", idx, a.total)
		}
		ba := byName[r.benchmark]
		if ba == nil {
			ba = &benchAcc{name: r.benchmark, fs: cluster.NewFeatureSpace(a.cfg.Features)}
			byName[r.benchmark] = ba
			order = append(order, ba)
		}
		ba.fs.AddPoint(r.point)
	}
	rep := &Report{
		SchemaVersion: report.SchemaVersion,
		Seed:          a.cfg.Seed,
		PerBenchmark:  a.cfg.PerBenchmark,
		K:             a.cfg.K,
		Features:      a.cfg.Features.String(),
		ClusterSeed:   a.cfg.ClusterSeed,
		Config:        runCfg,
	}
	summaries := a.builder.Summaries()
	byBenchSummary := map[string]report.BenchSummary{}
	for _, s := range summaries {
		byBenchSummary[s.Benchmark] = s
	}
	for _, ba := range order {
		opts := a.cfg.Options()
		if opts.K > ba.fs.Len() {
			opts.K = ba.fs.Len()
		}
		sel, err := ba.fs.Select(opts)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", ba.name, err)
		}
		bs := BenchmarkSweep{
			Benchmark:       ba.name,
			Cells:           ba.fs.Len(),
			K:               opts.K,
			Representatives: sel.Representatives,
			Cost:            sel.Clustering.Cost,
			CoverageLoss:    sel.Loss,
			Summary:         byBenchSummary[ba.name],
		}
		for slot, medoid := range sel.Clustering.Medoids {
			cl := Cluster{Representative: sel.Names[medoid]}
			for i, assign := range sel.Clustering.Assign {
				if assign == slot {
					cl.Members = append(cl.Members, sel.Names[i])
				}
			}
			bs.Clusters = append(bs.Clusters, cl)
		}
		rep.Benchmarks = append(rep.Benchmarks, bs)
	}
	return rep, nil
}

// Format renders the sweep report as text.
func Format(r *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload-space sweep: seed=%d n=%d/benchmark k=%d features=%s\n",
		r.Seed, r.PerBenchmark, r.K, r.Features)
	for _, b := range r.Benchmarks {
		fmt.Fprintf(&sb, "%s: %d workloads -> %d representatives (cost=%.4f, coverage loss: dropped=%d max=%.4f mean=%.4f)\n",
			b.Benchmark, b.Cells, b.K, b.Cost,
			b.CoverageLoss.Dropped, b.CoverageLoss.MaxDistance, b.CoverageLoss.MeanDistance)
		for i, cl := range b.Clusters {
			fmt.Fprintf(&sb, "  cluster %d (representative %s): %s\n", i+1, cl.Representative, strings.Join(cl.Members, " "))
		}
		fmt.Fprintf(&sb, "  checksum=%016x cycles=[%d..%d] sum=%d\n",
			b.Summary.Checksum, b.Summary.CyclesMin, b.Summary.CyclesMax, b.Summary.CyclesSum)
	}
	for _, st := range r.FDO {
		sb.WriteString(fdo.FormatScaleStudy(st))
	}
	return sb.String()
}
