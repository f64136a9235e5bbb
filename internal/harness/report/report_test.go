package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// fakeResults builds a small deterministic Results fixture with enough
// variation for every section builder.
func fakeResults() Results {
	mk := func(bench, w string, kind core.Kind, f, b float64, cycles uint64, cov stats.Coverage) Measurement {
		return Measurement{
			Benchmark: bench, Workload: w, Kind: kind,
			Checksum: 42,
			TopDown:  stats.TopDown{FrontEnd: f, BackEnd: b, BadSpec: 0.1, Retiring: 1 - f - b - 0.1},
			Coverage: cov,
			Cycles:   cycles, ModeledSeconds: float64(cycles) / 3.4e9,
			WallSeconds: 0.001,
		}
	}
	return Results{
		"901.alpha_r": {
			mk("901.alpha_r", "train", core.KindTrain, 0.2, 0.3, 1000, stats.Coverage{"a": 0.7, "b": 0.3}),
			mk("901.alpha_r", "refrate", core.KindRefrate, 0.25, 0.35, 2000, stats.Coverage{"a": 0.6, "b": 0.4}),
			mk("901.alpha_r", "alberta.x", core.KindAlberta, 0.3, 0.2, 1500, stats.Coverage{"a": 0.5, "b": 0.5}),
		},
		"902.beta_r": {
			mk("902.beta_r", "train", core.KindTrain, 0.15, 0.45, 3000, stats.Coverage{"c": 0.9, "d": 0.1}),
			mk("902.beta_r", "refrate", core.KindRefrate, 0.18, 0.4, 4000, stats.Coverage{"c": 0.8, "d": 0.2}),
		},
	}
}

func TestBuildAllSections(t *testing.T) {
	res := fakeResults()
	s, err := Build(res, RunConfig{Reps: 1}, BuildOptions{Sections: AllSections()})
	if err != nil {
		t.Fatal(err)
	}
	if s.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d", s.SchemaVersion)
	}
	if len(s.Benchmarks) != 2 || s.Benchmarks[0] != "901.alpha_r" {
		t.Errorf("benchmarks = %v", s.Benchmarks)
	}
	if len(s.Table2) != 2 || s.Table2[0].Benchmark != "901.alpha_r" {
		t.Errorf("table2 = %+v", s.Table2)
	}
	if len(s.Table1) != len(PaperTableI) {
		t.Errorf("table1 rows = %d", len(s.Table1))
	}
	if len(s.Figure1) != 2 || len(s.Figure2) != 2 {
		t.Errorf("figures = %d/%d series", len(s.Figure1), len(s.Figure2))
	}
	if len(s.Kernels) != 2 {
		t.Errorf("kernels = %+v", s.Kernels)
	}
	if s.Measurements == nil {
		t.Error("measurements section missing")
	}
}

func TestBuildSectionSelection(t *testing.T) {
	res := fakeResults()
	s, err := Build(res, RunConfig{Reps: 1}, BuildOptions{Sections: Sections{Table2: true}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Table2 == nil || s.Table1 != nil || s.Figure1 != nil || s.Figure2 != nil || s.Kernels != nil || s.Measurements != nil {
		t.Errorf("unexpected sections populated: %+v", s)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	res := fakeResults()
	var docs [][]byte
	for i := 0; i < 3; i++ {
		s, err := Build(res, RunConfig{Reps: 3}, BuildOptions{Sections: AllSections()})
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	if !bytes.Equal(docs[0], docs[1]) || !bytes.Equal(docs[1], docs[2]) {
		t.Error("Encode is not byte-deterministic for equal envelopes")
	}
	if !strings.Contains(string(docs[0]), "\"schema_version\": 2") {
		t.Errorf("missing schema_version in:\n%.200s", docs[0])
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	for _, v := range []string{"999", "1"} {
		if _, err := Decode([]byte(`{"schema_version": ` + v + `}`)); err == nil {
			t.Errorf("schema_version %s accepted", v)
		}
	}
	s, err := Decode([]byte(`{"schema_version": 2, "benchmarks": ["x"]}`))
	if err != nil || len(s.Benchmarks) != 1 {
		t.Errorf("decode: %v %+v", err, s)
	}
}

func TestParseSections(t *testing.T) {
	all, err := ParseSections(nil)
	if err != nil || all != AllSections() {
		t.Errorf("empty list: %v %+v", err, all)
	}
	s, err := ParseSections([]string{"table2", "kernels"})
	if err != nil || !s.Table2 || !s.Kernels || s.Table1 || s.Measurements {
		t.Errorf("subset: %v %+v", err, s)
	}
	if _, err := ParseSections([]string{"nope"}); err == nil {
		t.Error("unknown section accepted")
	}
	names := AllSections().Names()
	want := []string{"measurements", "table1", "table2", "figure1", "figure2", "kernels"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestFigureBenchmarkRestriction(t *testing.T) {
	res := fakeResults()
	s, err := Build(res, RunConfig{}, BuildOptions{
		Sections:          Sections{Figure1: true, Figure2: true},
		Figure1Benchmarks: []string{"902.beta_r"},
		Figure2Benchmarks: []string{"901.alpha_r"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Figure1) != 1 || s.Figure1[0].Benchmark != "902.beta_r" {
		t.Errorf("figure1 = %+v", s.Figure1)
	}
	if len(s.Figure2) != 1 || s.Figure2[0].Benchmark != "901.alpha_r" {
		t.Errorf("figure2 = %+v", s.Figure2)
	}
	if _, err := Build(res, RunConfig{}, BuildOptions{
		Sections:          Sections{Figure1: true},
		Figure1Benchmarks: []string{"903.missing_r"},
	}); err == nil {
		t.Error("unknown figure benchmark accepted")
	}
}

func TestTopMethods(t *testing.T) {
	m := Measurement{Coverage: stats.Coverage{"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}}
	top := topMethods(m, 2)
	if len(top) != 2 || top[0].name != "a" || top[1].name != "b" {
		t.Errorf("topMethods = %+v", top)
	}
	if got := topMethods(m, 10); len(got) != 4 {
		t.Errorf("over-request returns %d", len(got))
	}
}
