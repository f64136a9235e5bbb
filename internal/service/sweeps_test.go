package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/benchmarks/xalan"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/perf"
	"repro/internal/sweep"
)

// genBench is a generator-capable test benchmark whose behaviour varies
// by generated index, so clustering has real structure to find. It
// counts executions and generations, letting tests assert cache reuse.
type genBench struct {
	name        string
	runs        atomic.Int64
	generations atomic.Int64
}

func (b *genBench) Name() string { return b.name }
func (b *genBench) Area() string { return "testing" }
func (b *genBench) Workloads() ([]core.Workload, error) {
	return []core.Workload{core.Meta{Name: "refrate", Kind: core.KindRefrate}}, nil
}

func (b *genBench) GenerateWorkload(seed int64, index int) (core.Workload, error) {
	b.generations.Add(1)
	return core.Meta{Name: core.GeneratedName(seed, index), Kind: core.KindAlberta}, nil
}

func (b *genBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return b.run(w, p) }), nil
}

func (b *genBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	b.runs.Add(1)
	_, idx, ok := core.ParseGeneratedName(w.WorkloadName())
	if !ok {
		idx = 0
	}
	n := uint64(300 + 191*idx)
	p.Do(fmt.Sprintf("phase.%d", idx%3), func() {
		for i := uint64(0); i < n; i++ {
			p.Ops(2)
			p.Branch(1, i%uint64(idx+2) == 0)
			p.Load(i * 64 % (1 << 14))
		}
	})
	p.Do("tail", func() { p.Ops(n % 701) })
	sum := core.NewChecksum().AddString(b.name).AddString(w.WorkloadName())
	return core.Result{
		Benchmark: b.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value(),
	}, nil
}

// postSweep posts a sweep request and returns the recorder.
func postSweep(t *testing.T, s *Server, body string, sse bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body))
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// sweepFrames decodes an NDJSON sweep stream into per-kind buckets,
// keeping each frame's raw bytes.
func sweepFrames(t *testing.T, body string) map[string][]json.RawMessage {
	t.Helper()
	out := map[string][]json.RawMessage{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("invalid NDJSON frame: %v\n%s", err, line)
		}
		out[probe.Kind] = append(out[probe.Kind], json.RawMessage(line))
	}
	return out
}

func TestSweepStream(t *testing.T) {
	b := &genBench{name: "991.gen_r"}
	s := newTestServer(t, b)
	rec := postSweep(t, s, `{"benchmarks":["991.gen_r"],"per_benchmark":6,"seed":7,"k":2,"config":{"reps":1}}`, false)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d\n%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	frames := sweepFrames(t, rec.Body.String())
	if len(frames["cell"]) != 6 {
		t.Fatalf("%d cell frames, want 6", len(frames["cell"]))
	}
	seen := map[int]bool{}
	for _, raw := range frames["cell"] {
		var c sweepCellEvent
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		if seen[c.Index] {
			t.Errorf("cell %d delivered twice", c.Index)
		}
		seen[c.Index] = true
		if c.Total != 6 || c.Benchmark != "991.gen_r" || !strings.HasPrefix(c.Workload, "gen.s7.") {
			t.Errorf("unexpected cell frame: %+v", c)
		}
		if c.Source != "local" {
			t.Errorf("cell %d source = %q, want local on a cold store", c.Index, c.Source)
		}
	}
	if len(frames["selection"]) != 1 {
		t.Fatalf("%d selection frames, want 1", len(frames["selection"]))
	}
	var sel sweepSelectionEvent
	if err := json.Unmarshal(frames["selection"][0], &sel); err != nil {
		t.Fatal(err)
	}
	if sel.Benchmark != "991.gen_r" || sel.Cells != 6 || sel.K != 2 || len(sel.Representatives) != 2 {
		t.Errorf("unexpected selection: %+v", sel)
	}
	if sel.CoverageLoss.Dropped != 4 {
		t.Errorf("coverage loss dropped = %d, want 4", sel.CoverageLoss.Dropped)
	}
	if len(frames["report"]) != 1 {
		t.Fatalf("%d report frames, want 1", len(frames["report"]))
	}
	if int(b.runs.Load()) != 6 {
		t.Errorf("benchmark executed %d times, want 6", b.runs.Load())
	}
}

// TestSweepMatchesCLIPath pins the cross-frontend determinism guarantee:
// the service's final report frame is byte-identical to the report the
// CLI path (sweep.Plan → harness stream → Accumulator) produces for the
// same request.
func TestSweepMatchesCLIPath(t *testing.T) {
	s := newTestServer(t, &genBench{name: "991.gen_r"})
	rec := postSweep(t, s, `{"benchmarks":["991.gen_r"],"per_benchmark":8,"seed":3,"k":3}`, false)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d\n%s", rec.Code, rec.Body.String())
	}
	frames := sweepFrames(t, rec.Body.String())
	if len(frames["report"]) != 1 {
		t.Fatalf("%d report frames, want 1\n%s", len(frames["report"]), rec.Body.String())
	}
	var frame struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(frames["report"][0], &frame); err != nil {
		t.Fatal(err)
	}

	// The CLI path, on a fresh benchmark instance of the same name.
	suite, err := core.NewSuite(&genBench{name: "991.gen_r"})
	if err != nil {
		t.Fatal(err)
	}
	swcfg, err := sweep.Config{Benchmarks: []string{"991.gen_r"}, PerBenchmark: 8, Seed: 3, K: 3}.Normalize(suite)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := harness.Options{Workers: 2, FailFast: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	units, err := sweep.Plan(suite, swcfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := sweep.NewAccumulator(swcfg)
	err = harness.NewPlanRunner(units, opts).Stream(context.Background(), func(c harness.Cell, m report.Measurement) error {
		acc.Add(c.Index, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := acc.Report(opts.ReportConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame.Report) != string(wantJSON) {
		t.Errorf("service report differs from CLI path:\nservice: %s\ncli:     %s", frame.Report, wantJSON)
	}
}

// TestSweepCacheReuse proves repeated sweep cells are free: a second
// identical sweep answers every cell from the store and executes nothing.
func TestSweepCacheReuse(t *testing.T) {
	b := &genBench{name: "991.gen_r"}
	s := newTestServer(t, b)
	body := `{"benchmarks":["991.gen_r"],"per_benchmark":5,"seed":11,"k":2,"config":{"reps":1}}`
	if rec := postSweep(t, s, body, false); rec.Code != http.StatusOK {
		t.Fatalf("first sweep: %d\n%s", rec.Code, rec.Body.String())
	}
	first := b.runs.Load()
	rec := postSweep(t, s, body, false)
	if rec.Code != http.StatusOK {
		t.Fatalf("second sweep: %d\n%s", rec.Code, rec.Body.String())
	}
	if b.runs.Load() != first {
		t.Errorf("second sweep executed %d cells, want 0", b.runs.Load()-first)
	}
	for _, raw := range sweepFrames(t, rec.Body.String())["cell"] {
		var c sweepCellEvent
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		if c.Source != "cached" {
			t.Errorf("repeat cell %d source = %q, want cached", c.Index, c.Source)
		}
	}
}

func TestSweepSSE(t *testing.T) {
	s := newTestServer(t, &genBench{name: "991.gen_r"})
	rec := postSweep(t, s, `{"benchmarks":["991.gen_r"],"per_benchmark":3,"seed":1,"k":1}`, true)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d\n%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"event: cell\n", "event: selection\n", "event: report\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, body)
		}
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, &genBench{name: "991.gen_r"}, &countBench{name: "990.count_r"}, xalan.New())
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown benchmark", `{"benchmarks":["999.none_r"]}`},
		{"non-generator benchmark", `{"benchmarks":["990.count_r"]}`},
		{"bad features", `{"features":"vibes"}`},
		{"window", `{"window":3}`},
		{"bad per_benchmark", `{"per_benchmark":-2}`},
		{"unknown field", `{"bogus":true}`},
		{"out-of-domain seed", `{"benchmarks":["523.xalancbmk_r"],"per_benchmark":2,"seed":-7}`},
	} {
		rec := postSweep(t, s, tc.body, false)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%s", tc.name, rec.Code, rec.Body.String())
		}
	}
}

func TestSweepDrainingAnswers503(t *testing.T) {
	s := newTestServer(t, &genBench{name: "991.gen_r"})
	s.Drain()
	rec := postSweep(t, s, `{"benchmarks":["991.gen_r"]}`, false)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", rec.Code)
	}
}
