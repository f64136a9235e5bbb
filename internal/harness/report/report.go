// Package report is the result schema of the characterization system: the
// row and series types behind the paper's Table I, Table II, Figure 1 and
// Figure 2, the per-benchmark kernel-representativeness analysis, and the
// versioned Suite envelope that carries them between producers and
// consumers.
//
// Two frontends emit the envelope — `albertarun -json` for one-shot runs
// and the albertad service (internal/service) for cached, queued runs —
// and both produce the same document for the same benchmark × workload
// matrix, so results can be exchanged and compared across machines and
// across time (the "consistent and comparable evaluation" concern of the
// related work).
//
// Schema versioning policy: SchemaVersion identifies the JSON layout of
// Suite and everything reachable from it. Additive, backward-compatible
// changes (new optional fields, new sections) do not bump the version;
// any change that renames, removes or re-types an existing field does.
// Consumers reject documents whose schema_version they do not know.
package report

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion is the version of the Suite JSON layout emitted by this
// tree. See the package comment for the bump policy.
const SchemaVersion = 2

// RunConfig is the result-affecting subset of the harness run options,
// recorded in the envelope so a consumer knows how the measurements were
// taken. Scheduling knobs (worker counts, fail-fast, progress callbacks)
// are deliberately absent: they never change a deterministic field of the
// results, only wall-clock behaviour.
type RunConfig struct {
	// Reps is the number of repetitions each workload was executed.
	// It affects only the WallSeconds averaging, never the modeled fields.
	Reps int `json:"reps"`
	// IncludeTest records whether SPEC test inputs were measured.
	IncludeTest bool `json:"include_test"`
	// Sampled records whether measurements were taken by phase-sampled
	// simulation; SampledInterval and SampledPhases are its profiling
	// interval (retired ops) and cluster count. All three are omitted from
	// exact envelopes, which therefore carry no sampling keys at all.
	Sampled         bool   `json:"sampled,omitempty"`
	SampledInterval uint64 `json:"sampled_interval,omitempty"`
	SampledPhases   int    `json:"sampled_phases,omitempty"`
}

// Sections selects which derived sections Build computes for a Suite.
// Measurements is the raw per-workload data; the rest are derived views.
type Sections struct {
	Measurements bool
	Table1       bool
	Table2       bool
	Figure1      bool
	Figure2      bool
	Kernels      bool
}

// AllSections enables everything.
func AllSections() Sections {
	return Sections{Measurements: true, Table1: true, Table2: true, Figure1: true, Figure2: true, Kernels: true}
}

// Names returns the enabled section names in canonical order (the order
// used by cache keys and the HTTP API).
func (s Sections) Names() []string {
	var out []string
	for _, n := range sectionOrder {
		if *n.field(&s) {
			out = append(out, n.name)
		}
	}
	return out
}

// sectionOrder maps canonical section names to Sections fields.
var sectionOrder = []struct {
	name  string
	field func(*Sections) *bool
}{
	{"measurements", func(s *Sections) *bool { return &s.Measurements }},
	{"table1", func(s *Sections) *bool { return &s.Table1 }},
	{"table2", func(s *Sections) *bool { return &s.Table2 }},
	{"figure1", func(s *Sections) *bool { return &s.Figure1 }},
	{"figure2", func(s *Sections) *bool { return &s.Figure2 }},
	{"kernels", func(s *Sections) *bool { return &s.Kernels }},
}

// ParseSections builds a Sections from canonical names; unknown names are
// an error. An empty list selects everything.
func ParseSections(names []string) (Sections, error) {
	if len(names) == 0 {
		return AllSections(), nil
	}
	var s Sections
	for _, name := range names {
		found := false
		for _, n := range sectionOrder {
			if n.name == name {
				*n.field(&s) = true
				found = true
				break
			}
		}
		if !found {
			return Sections{}, fmt.Errorf("report: unknown section %q", name)
		}
	}
	return s, nil
}

// Suite is the versioned envelope every characterization result travels
// in: the raw measurements plus the derived tables and figures, under a
// schema_version consumers can dispatch on. Field order (and therefore
// the marshaled byte layout) is part of the schema: Encode output for
// equal envelopes is byte-identical, which the service's result cache
// relies on.
type Suite struct {
	SchemaVersion int       `json:"schema_version"`
	Benchmarks    []string  `json:"benchmarks"`
	Config        RunConfig `json:"config"`

	Measurements Results          `json:"measurements,omitempty"`
	Table1       []TableIRow      `json:"table1,omitempty"`
	Table2       []TableIIRow     `json:"table2,omitempty"`
	Figure1      []FigureSeries   `json:"figure1,omitempty"`
	Figure2      []CoverageSeries `json:"figure2,omitempty"`
	Kernels      []KernelRow      `json:"kernels,omitempty"`
}

// BuildOptions configure Build beyond the section selection.
type BuildOptions struct {
	Sections Sections
	// Figure1Benchmarks / Figure2Benchmarks restrict the figure series;
	// nil means every benchmark in the results (the service default). The
	// albertarun frontend passes the paper's plotted benchmarks here.
	Figure1Benchmarks []string
	Figure2Benchmarks []string
	// Figure2TopN is the number of named methods before the "others" fold;
	// zero means 6, matching the paper's plots.
	Figure2TopN int
}

// Build assembles a Suite envelope from run results. The benchmark name
// order is computed once and shared by every section builder.
func Build(results Results, cfg RunConfig, o BuildOptions) (*Suite, error) {
	sorted := results.SortedBenchmarks()
	s := &Suite{SchemaVersion: SchemaVersion, Benchmarks: sorted, Config: cfg}
	if o.Sections.Measurements {
		s.Measurements = results
	}
	if o.Sections.Table1 {
		s.Table1 = TableI(results)
	}
	if o.Sections.Table2 {
		rows, err := TableII(results, sorted)
		if err != nil {
			return nil, err
		}
		s.Table2 = rows
	}
	if o.Sections.Figure1 {
		series, err := Figure1(results, benchmarksOr(o.Figure1Benchmarks, sorted)...)
		if err != nil {
			return nil, err
		}
		s.Figure1 = series
	}
	if o.Sections.Figure2 {
		topN := o.Figure2TopN
		if topN <= 0 {
			topN = 6
		}
		series, err := Figure2(results, topN, benchmarksOr(o.Figure2Benchmarks, sorted)...)
		if err != nil {
			return nil, err
		}
		s.Figure2 = series
	}
	if o.Sections.Kernels {
		rows, err := Kernels(results, sorted)
		if err != nil {
			return nil, err
		}
		s.Kernels = rows
	}
	return s, nil
}

func benchmarksOr(explicit, all []string) []string {
	if len(explicit) > 0 {
		return explicit
	}
	return all
}

// Encode marshals the envelope in its canonical form: two-space indented
// JSON with a trailing newline. Struct fields marshal in declaration
// order and map keys sort, so equal envelopes encode to equal bytes.
func (s *Suite) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses an envelope, rejecting documents from a different schema
// version.
func Decode(data []byte) (*Suite, error) {
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	if s.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("report: unsupported schema_version %d (want %d)", s.SchemaVersion, SchemaVersion)
	}
	return &s, nil
}
