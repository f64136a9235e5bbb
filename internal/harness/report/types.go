package report

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// Measurement is the summarized observation of one workload (over the
// run's repetitions). Every field except WallSeconds is deterministic:
// bit-identical across runs, worker counts and event paths.
type Measurement struct {
	Benchmark string         `json:"benchmark"`
	Workload  string         `json:"workload"`
	Kind      core.Kind      `json:"kind"`
	Checksum  uint64         `json:"checksum"`
	TopDown   stats.TopDown  `json:"top_down"`
	Coverage  stats.Coverage `json:"coverage"`
	Cycles    uint64         `json:"cycles"`
	// ModeledSeconds is cycles at the modeled 3.4 GHz clock.
	ModeledSeconds float64 `json:"modeled_seconds"`
	// WallSeconds is the mean wall-clock run time of the repetitions. It
	// is the only field that may differ between runs (and between worker
	// counts); everything else is deterministic. In sampled mode it is the
	// mean of the measure passes alone — the steady-state repeat cost —
	// excluding the one-time profile and warm passes.
	WallSeconds float64 `json:"wall_seconds"`
	// Sampled marks a measurement taken by phase-sampled simulation:
	// probe-derived fields are extrapolated from representative intervals,
	// not exact. Exact measurements omit the key, so their bytes are the
	// same as before sampling existed.
	Sampled bool `json:"sampled,omitempty"`
}

// Results maps benchmark name to its per-workload measurements, in
// workload inventory order. It is the raw data every derived section is
// computed from (harness.SuiteResults is an alias of this type).
type Results map[string][]Measurement

// SortedBenchmarks returns the result keys in name order. The sort is
// recomputed on every call; code that needs the order more than once — a
// Build over several sections, a CLI invocation with several modes —
// should call it once and pass the slice down.
func (r Results) SortedBenchmarks() []string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Assemble groups per-cell measurements into Results. It is the
// cell-addressable build path: a coordinator that resolves the cells of a
// job independently — from a cache, a local run, or a remote worker —
// passes them here in plan (inventory) order and gets back exactly the
// Results a monolithic Runner.Run would have produced, because each
// benchmark's slice preserves the input order and Results' map form
// carries no order of its own (consumers sort by name).
func Assemble(ms []Measurement) Results {
	r := Results{}
	for _, m := range ms {
		r[m.Benchmark] = append(r[m.Benchmark], m)
	}
	return r
}

// KindBreakdown counts workloads by kind for a benchmark's measurements
// (used by inventory reporting).
func KindBreakdown(ms []Measurement) map[core.Kind]int {
	out := map[core.Kind]int{}
	for _, m := range ms {
		out[m.Kind]++
	}
	return out
}

// refrateOf finds the refrate measurement in a benchmark's list.
func refrateOf(ms []Measurement) (Measurement, bool) {
	for _, m := range ms {
		if m.Kind == core.KindRefrate {
			return m, true
		}
	}
	return Measurement{}, false
}
