package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// faultBench is a benchmark for failure tests: n Alberta workloads plus a
// train, generated workloads for sweeps, an optional gate every execution
// blocks on until closed, and an optional set of workloads whose kernel
// panics midway through a profiled method (counted in panics).
type faultBench struct {
	name    string
	n       int
	gate    chan struct{}
	panicOn map[string]bool
	runs    atomic.Int64
	panics  atomic.Int64
}

func (b *faultBench) Name() string { return b.name }
func (b *faultBench) Area() string { return "testing" }
func (b *faultBench) Workloads() ([]core.Workload, error) {
	ws := []core.Workload{core.Meta{Name: "train", Kind: core.KindTrain}}
	for i := 0; i < b.n; i++ {
		ws = append(ws, core.Meta{Name: fmt.Sprintf("alberta.%03d", i), Kind: core.KindAlberta})
	}
	return ws, nil
}

func (b *faultBench) GenerateWorkload(seed int64, index int) (core.Workload, error) {
	return core.Meta{Name: core.GeneratedName(seed, index), Kind: core.KindAlberta}, nil
}

func (b *faultBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return b.run(w, p) }), nil
}

func (b *faultBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	b.runs.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	p.Do("kernel", func() {
		p.Ops(100)
		if b.panicOn[w.WorkloadName()] {
			b.panics.Add(1)
			panic("kernel bug")
		}
	})
	sum := core.NewChecksum().AddString(b.name).AddString(w.WorkloadName())
	return core.Result{
		Benchmark: b.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value(),
	}, nil
}

// TestPanickingCellFailsJob: a kernel panic fails its job — with the cell
// named — instead of killing the daemon. A second job deduplicated onto
// the panicking cell's flight receives the same error rather than waiting
// forever, and the server keeps answering.
func TestPanickingCellFailsJob(t *testing.T) {
	bench := &faultBench{name: "993.panic_r", n: 2, gate: make(chan struct{}),
		panicOn: map[string]bool{"train": true}}
	suite, err := core.NewSuite(bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Suite: suite, JobWorkers: 2, RunWorkers: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)

	// Same cells, different presentation: the second job cannot be born
	// done, so it deduplicates onto the first job's flights. The gate
	// holds every flight until all three leaders are inside the kernel.
	var ids []string
	for _, body := range []string{
		`{"config": {"reps": 1}, "sections": ["table2"]}`,
		`{"config": {"reps": 1}, "sections": ["table1"]}`,
	} {
		rec, doc := doJSON(t, s.Handler(), "POST", "/v1/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit: %d\n%s", rec.Code, rec.Body.String())
		}
		ids = append(ids, jobID(t, doc))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.cells.stats()
		if st.Misses == 3 && st.InflightWaits == 3 && bench.runs.Load() == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights never lined up: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(bench.gate)

	for _, id := range ids {
		st := waitTerminal(t, s, id)
		msg, _ := st["error"].(string)
		if st["state"] != stateFailed || !strings.Contains(msg, "993.panic_r/train") || !strings.Contains(msg, "kernel bug") {
			t.Errorf("job %s = %v %q, want failed naming 993.panic_r/train", id, st["state"], msg)
		}
	}
	if rec, doc := doJSON(t, s.Handler(), "GET", "/healthz", ""); rec.Code != http.StatusOK || doc["status"] != "ok" {
		t.Errorf("healthz after a panic = %d %v", rec.Code, doc)
	}
	if got := bench.runs.Load(); got != 3 {
		t.Errorf("benchmark ran %d times, want 3 (the panicking cell once)", got)
	}
}

// TestPanickingCellExecute: on the worker protocol a panicking cell
// answers 500 with an error envelope naming it, and drops its flight — a
// retry re-executes the cell rather than waiting on a dead flight or
// reading a cached failure.
func TestPanickingCellExecute(t *testing.T) {
	bench := &faultBench{name: "993.panic_r", panicOn: map[string]bool{"train": true}}
	s := newTestServer(t, bench)
	body := `{"benchmark": "993.panic_r", "workload": "train", "config": {"reps": 1}}`
	for attempt := 1; attempt <= 2; attempt++ {
		rec, doc := doJSON(t, s.Handler(), "POST", "/v1/cells:execute", body)
		msg, _ := doc["error"].(string)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(msg, "993.panic_r/train") ||
			doc["schema_version"] != float64(report.SchemaVersion) {
			t.Errorf("attempt %d: %d %v, want 500 naming 993.panic_r/train", attempt, rec.Code, doc)
		}
		if got := bench.runs.Load(); got != int64(attempt) {
			t.Errorf("attempt %d: cell executed %d times, want %d", attempt, got, attempt)
		}
	}
	if st := s.cells.stats(); st.Inflight != 0 || st.Cells != 0 {
		t.Errorf("cell store after failures = %+v, want nothing inflight or resolved", st)
	}
}

// TestPanickingCellFailsSweep: one generated cell whose kernel panics ends
// its sweep's stream with a single error frame naming the cell, and no
// report. The server keeps answering, the failed cell leaves nothing in the
// store (neither a flight nor a resolved entry), and a repeat of the sweep
// executes that cell again rather than reading a cached failure.
func TestPanickingCellFailsSweep(t *testing.T) {
	bench := &faultBench{name: "993.panic_r", panicOn: map[string]bool{"gen.s7.2": true}}
	s := newTestServer(t, bench)
	body := `{"benchmarks":["993.panic_r"],"per_benchmark":4,"seed":7,"k":1,"config":{"reps":1}}`
	opts, err := runOptions(report.RunConfig{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := cellKey("993.panic_r", "gen.s7.2", opts.ReportConfig())
	for attempt := 1; attempt <= 2; attempt++ {
		rec := postSweep(t, s, body, false)
		if rec.Code != http.StatusOK {
			t.Fatalf("attempt %d: status %d\n%s", attempt, rec.Code, rec.Body.String())
		}
		frames := sweepFrames(t, rec.Body.String())
		if len(frames["error"]) != 1 || len(frames["report"]) != 0 {
			t.Fatalf("attempt %d: %d error and %d report frames, want 1 and 0:\n%s",
				attempt, len(frames["error"]), len(frames["report"]), rec.Body.String())
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if last := lines[len(lines)-1]; last != string(frames["error"][0]) {
			t.Errorf("attempt %d: stream ends with %s, want the error frame", attempt, last)
		}
		var e sweepErrorEvent
		if err := json.Unmarshal(frames["error"][0], &e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(e.Error, "993.panic_r/gen.s7.2") || !strings.Contains(e.Error, "kernel bug") {
			t.Errorf("attempt %d: error frame %q, want it to name 993.panic_r/gen.s7.2 and kernel bug", attempt, e.Error)
		}
		if got := bench.panics.Load(); got != int64(attempt) {
			t.Errorf("attempt %d: panicking cell executed %d times, want %d", attempt, got, attempt)
		}
		if rec, doc := doJSON(t, s.Handler(), "GET", "/healthz", ""); rec.Code != http.StatusOK {
			t.Errorf("attempt %d: healthz after a panic = %d %v", attempt, rec.Code, doc)
		}
		rec, doc := doJSON(t, s.Handler(), "GET", "/v1/cache", "")
		cache, _ := doc["cache"].(map[string]any)
		if rec.Code != http.StatusOK || cache["inflight"] != float64(0) {
			t.Errorf("attempt %d: /v1/cache = %d %v, want nothing inflight", attempt, rec.Code, doc)
		}
		if _, ok := s.cells.allResolved([]string{key}); ok {
			t.Errorf("attempt %d: the failed cell has a cache entry", attempt)
		}
	}
}

// TestOversizedBodyRejected: every JSON endpoint stops reading at
// maxRequestBytes and answers 413 with an error envelope.
func TestOversizedBodyRejected(t *testing.T) {
	s := newTestServer(t, &genBench{name: "991.gen_r"})
	huge := strings.Repeat("a", maxRequestBytes)
	for path, body := range map[string]string{
		"/v1/jobs":          `{"benchmarks": ["` + huge + `"]}`,
		"/v1/sweeps":        `{"benchmarks": ["` + huge + `"]}`,
		"/v1/cells:execute": `{"benchmark": "` + huge + `", "workload": "train", "config": {}}`,
	} {
		rec, doc := doJSON(t, s.Handler(), "POST", path, body)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
		if msg, _ := doc["error"].(string); msg == "" || doc["schema_version"] != float64(report.SchemaVersion) {
			t.Errorf("%s: error envelope = %v", path, doc)
		}
	}
}

// TestJobCellGoroutinesBounded: a running job of 200 blocked cells holds
// at most the server's cell window of cell goroutines, not one per cell.
func TestJobCellGoroutinesBounded(t *testing.T) {
	bench := &faultBench{name: "994.wide_r", n: 199, gate: make(chan struct{})}
	s := newTestServer(t, bench)
	base := runtime.NumGoroutine()
	rec, doc := doJSON(t, s.Handler(), "POST", "/v1/jobs", `{"config": {"reps": 1}, "sections": ["measurements"]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", rec.Code, rec.Body.String())
	}
	id := jobID(t, doc)
	// Every cell goroutine the job will hold while the gate is shut exists
	// once a window's worth of cells has reached the cell store.
	deadline := time.Now().Add(30 * time.Second)
	for s.cells.stats().Misses < uint64(s.window) {
		if time.Now().After(deadline) {
			t.Fatalf("job never filled its window: %+v", s.cells.stats())
		}
		time.Sleep(time.Millisecond)
	}
	if extra, bound := runtime.NumGoroutine()-base, s.window+2; extra > bound {
		t.Errorf("running job of 200 cells holds %d extra goroutines, want <= %d (window %d)", extra, bound, s.window)
	}
	close(bench.gate)
	if st := waitTerminal(t, s, id); st["state"] != stateDone || st["completed"] != float64(200) {
		t.Errorf("job = %+v", st)
	}
}
