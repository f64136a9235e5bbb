package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/leakcheck"
	"repro/internal/perf"
)

// TestMain gates the whole package on goroutine hygiene: every job
// worker, cell flight, SSE publisher and keep-alive connection spawned
// by any test must be gone once the run ends, or the package fails even
// with every test green. This is the executable form of the Drain
// contract.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}

// execFunc adapts a fake benchmark's one-shot run to
// core.PreparedWorkload: the fakes construct no input, so their Prepare
// only binds the workload.
type execFunc func(p *perf.Profiler) (core.Result, error)

func (f execFunc) Execute(p *perf.Profiler) (core.Result, error) { return f(p) }

// countBench is a tiny deterministic benchmark that counts executions and
// inventory builds, so tests can assert a cache hit executed zero
// measurements and looked nothing up. With a gate it blocks until
// released, letting tests hold a job in the running state.
type countBench struct {
	name        string
	runs        atomic.Int64
	inventories atomic.Int64
	gate        chan struct{}
}

func (b *countBench) Name() string { return b.name }
func (b *countBench) Area() string { return "testing" }
func (b *countBench) Workloads() ([]core.Workload, error) {
	b.inventories.Add(1)
	return []core.Workload{
		core.Meta{Name: "test", Kind: core.KindTest},
		core.Meta{Name: "train", Kind: core.KindTrain},
		core.Meta{Name: "refrate", Kind: core.KindRefrate},
		core.Meta{Name: "alberta.a", Kind: core.KindAlberta},
	}, nil
}

func (b *countBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) { return b.run(w, p) }), nil
}

func (b *countBench) run(w core.Workload, p *perf.Profiler) (core.Result, error) {
	if b.gate != nil {
		<-b.gate
	}
	b.runs.Add(1)
	n := uint64(len(w.WorkloadName())) * 300
	p.Do("alpha", func() {
		for i := uint64(0); i < n; i++ {
			p.Ops(3)
			p.Branch(1, i%2 == 0)
			p.Load(i * 64 % (1 << 16))
		}
	})
	p.Do("beta", func() { p.Ops(n % 5000) })
	sum := core.NewChecksum().AddString(w.WorkloadName())
	return core.Result{
		Benchmark: b.name, Workload: w.WorkloadName(),
		Kind: w.WorkloadKind(), Checksum: sum.Value(),
	}, nil
}

func newTestServer(t *testing.T, benches ...core.Benchmark) *Server {
	t.Helper()
	if len(benches) == 0 {
		benches = []core.Benchmark{&countBench{name: "990.count_r"}}
	}
	suite, err := core.NewSuite(benches...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Suite: suite, JobWorkers: 1, RunWorkers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc map[string]any
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s %s: invalid JSON response: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec, doc
}

// submitAndWait posts a job and polls it to a terminal state.
func submitAndWait(t *testing.T, s *Server, body string) (id string, final map[string]any) {
	t.Helper()
	rec, doc := doJSON(t, s.Handler(), "POST", "/v1/jobs", body)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("submit: %d\n%s", rec.Code, rec.Body.String())
	}
	id = doc["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+id, "")
		switch st["state"] {
		case stateDone, stateFailed, stateCanceled:
			return id, st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"nope": 1}`},
		{"unknown benchmark", `{"benchmarks": ["999.ghost_r"]}`},
		{"duplicate benchmark", `{"benchmarks": ["990.count_r", "990.count_r"]}`},
		{"negative reps", `{"config": {"reps": -1}}`},
		{"unknown section", `{"sections": ["bogus"]}`},
		{"negative top n", `{"figure2_top_n": -1}`},
	}
	for _, tc := range cases {
		rec, doc := doJSON(t, s.Handler(), "POST", "/v1/jobs", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, rec.Code)
		}
		if doc["error"] == "" || doc["schema_version"] != float64(report.SchemaVersion) {
			t.Errorf("%s: error envelope = %v", tc.name, doc)
		}
	}
}

// TestRetiredConfigFieldsRejected: a request that sends a retired field —
// the stride, reference, sampled_interval or sampled_phases config field,
// or a sweep's window — must fail loudly — a 400 error envelope naming
// the field — on every endpoint that took it, rather than being measured
// under a config it did not ask for.
func TestRetiredConfigFieldsRejected(t *testing.T) {
	s := newTestServer(t)
	check := func(path, field, body string) {
		t.Helper()
		rec, doc := doJSON(t, s.Handler(), "POST", path, body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with %s: status = %d, want 400", path, field, rec.Code)
		}
		msg, _ := doc["error"].(string)
		if !strings.Contains(msg, `"`+field+`"`) || doc["schema_version"] != float64(report.SchemaVersion) {
			t.Errorf("%s with %s: error envelope = %v", path, field, doc)
		}
	}
	bodies := map[string]string{
		"/v1/jobs":          `{"config": {%s}}`,
		"/v1/sweeps":        `{"config": {%s}}`,
		"/v1/cells:execute": `{"benchmark": "990.count_r", "workload": "train", "config": {%s}}`,
	}
	retired := map[string]string{
		"stride":           "1",
		"reference":        "false",
		"sampled_interval": "16384",
		"sampled_phases":   "16",
	}
	for path, body := range bodies {
		for field, value := range retired {
			check(path, field, fmt.Sprintf(body, `"sampled": true, "`+field+`": `+value))
		}
	}
	check("/v1/sweeps", "window", `{"benchmarks": ["990.count_r"], "window": 3}`)
}

func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t)
	id, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}, "sections": ["table2"]}`)
	if st["state"] != stateDone {
		t.Fatalf("state = %v (error %v)", st["state"], st["error"])
	}
	if st["cached"] != false || st["completed"] != float64(3) || st["total"] != float64(3) {
		t.Errorf("status = %+v", st)
	}

	rec, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+id+"/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result: %d\n%s", rec.Code, rec.Body.String())
	}
	env, err := report.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Benchmarks) != 1 || env.Benchmarks[0] != "990.count_r" || env.Table2 == nil {
		t.Errorf("envelope = %+v", env)
	}
	if env.Config.Reps != 1 {
		t.Errorf("config not normalized: %+v", env.Config)
	}

	// Unknown job id → 404 everywhere.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		if rec, _ := doJSON(t, s.Handler(), "GET", path, ""); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}

	// The job list includes the job.
	_, list := doJSON(t, s.Handler(), "GET", "/v1/jobs", "")
	if jobs := list["jobs"].([]any); len(jobs) != 1 {
		t.Errorf("job list = %+v", list)
	}
}

func TestCacheHitBitIdentity(t *testing.T) {
	bench := &countBench{name: "990.count_r"}
	s := newTestServer(t, bench)
	body := `{"benchmarks": ["990.count_r"], "config": {"reps": 2}, "sections": ["measurements", "table2"]}`

	id1, st1 := submitAndWait(t, s, body)
	if st1["state"] != stateDone {
		t.Fatalf("first job: %+v", st1)
	}
	runsAfterFirst := bench.runs.Load()
	if runsAfterFirst == 0 {
		t.Fatal("first job executed no benchmarks")
	}
	rec1, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+id1+"/result", "")

	// Second identical request: answered 200 from cache, born done, zero
	// additional benchmark executions, byte-identical result.
	rec, st2 := doJSON(t, s.Handler(), "POST", "/v1/jobs", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache hit status = %d, want 200", rec.Code)
	}
	if st2["state"] != stateDone || st2["cached"] != true {
		t.Errorf("cached job status = %+v", st2)
	}
	if got := bench.runs.Load(); got != runsAfterFirst {
		t.Errorf("cache hit executed benchmarks: runs %d → %d", runsAfterFirst, got)
	}
	rec2, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+st2["id"].(string)+"/result", "")
	if rec1.Body.String() != rec2.Body.String() {
		t.Error("cache hit result is not byte-identical to the original")
	}

	// A different request misses the cache.
	if rec, _ := doJSON(t, s.Handler(), "POST", "/v1/jobs", `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`); rec.Code != http.StatusAccepted {
		t.Errorf("different config should miss the cache: %d", rec.Code)
	}
}

func TestSSEMonotonicCompleted(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}, "sections": ["table2"]}`)
	if st["state"] != stateDone {
		t.Fatalf("job: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // terminal job → stream ends by itself
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	var names []string
	for _, frame := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		lines := strings.SplitN(frame, "\n", 2)
		if len(lines) != 2 {
			t.Fatalf("malformed frame: %q", frame)
		}
		names = append(names, strings.TrimPrefix(lines[0], "event: "))
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[1], "data: ")), &e); err != nil {
			t.Fatalf("frame data: %v in %q", err, frame)
		}
		events = append(events, e)
	}
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	// Completed is monotone non-decreasing across the whole stream and the
	// final frame is the terminal with Completed == Total (the pinned
	// harness Event contract, preserved over SSE).
	prev := -1
	for i, e := range events {
		if e.Completed < prev {
			t.Errorf("event %d: completed %d < %d", i, e.Completed, prev)
		}
		prev = e.Completed
	}
	last := events[len(events)-1]
	if names[len(names)-1] != "done" || last.Kind != "terminal" || last.State != stateDone {
		t.Errorf("terminal frame = %q %+v", names[len(names)-1], last)
	}
	if last.Completed != last.Total || last.Total != 3 {
		t.Errorf("terminal completed/total = %d/%d", last.Completed, last.Total)
	}
	// Every measurement produced exactly one start and one done event.
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts["start"] != 3 || counts["done"] != 3 || counts["terminal"] != 1 {
		t.Errorf("event mix = %v", counts)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	blocker := &countBench{name: "990.count_r", gate: make(chan struct{})}
	s := newTestServer(t, blocker)

	// Job A occupies the single worker (its benchmark blocks on the gate).
	recA, docA := doJSON(t, s.Handler(), "POST", "/v1/jobs", `{"config": {"reps": 1}}`)
	if recA.Code != http.StatusAccepted {
		t.Fatalf("job A: %d", recA.Code)
	}
	// Job B sits in the queue behind it; different body → no cache overlap.
	recB, docB := doJSON(t, s.Handler(), "POST", "/v1/jobs", `{"config": {"reps": 2}}`)
	if recB.Code != http.StatusAccepted {
		t.Fatalf("job B: %d", recB.Code)
	}
	idB := docB["id"].(string)

	// Result of a non-done job → 409.
	if rec, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+idB+"/result", ""); rec.Code != http.StatusConflict {
		t.Errorf("result of queued job = %d, want 409", rec.Code)
	}

	rec, st := doJSON(t, s.Handler(), "DELETE", "/v1/jobs/"+idB, "")
	if rec.Code != http.StatusOK || st["state"] != stateCanceled {
		t.Fatalf("cancel B: %d %+v", rec.Code, st)
	}
	// Canceling again → 409.
	if rec, _ := doJSON(t, s.Handler(), "DELETE", "/v1/jobs/"+idB, ""); rec.Code != http.StatusConflict {
		t.Errorf("double cancel = %d, want 409", rec.Code)
	}

	close(blocker.gate)
	idA := docA["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+idA, "")
		if st["state"] == stateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The canceled job stayed canceled and never ran.
	_, stB := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+idB, "")
	if stB["state"] != stateCanceled {
		t.Errorf("job B = %+v", stB)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s := newTestServer(t)
	_, st := submitAndWait(t, s, `{"config": {"reps": 1}}`)
	if st["state"] != stateDone {
		t.Fatalf("job: %+v", st)
	}
	s.Drain() // idempotent with the t.Cleanup drain
	rec, doc := doJSON(t, s.Handler(), "POST", "/v1/jobs", `{"config": {"reps": 3}}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", rec.Code)
	}
	if _, health := doJSON(t, s.Handler(), "GET", "/healthz", ""); health["draining"] != true {
		t.Errorf("healthz = %v", health)
	}
	_ = doc
}

func TestMetrics(t *testing.T) {
	s := newTestServer(t)
	body := `{"benchmarks": ["990.count_r"], "config": {"reps": 1}, "sections": ["table2"]}`
	if _, st := submitAndWait(t, s, body); st["state"] != stateDone {
		t.Fatalf("job: %+v", st)
	}
	doJSON(t, s.Handler(), "POST", "/v1/jobs", body) // cache hit

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.SchemaVersion != report.SchemaVersion {
		t.Errorf("schema_version = %d", m.SchemaVersion)
	}
	if m.Jobs.Done != 2 {
		t.Errorf("jobs = %+v", m.Jobs)
	}
	// First job: 3 cold cells (misses, local runs); repeat job: 3 cell
	// hits at submit time, born done.
	if m.Cells.Misses != 3 || m.Cells.Hits != 3 || m.Cells.Cells != 3 || m.Cells.LocalRuns != 3 {
		t.Errorf("cells = %+v", m.Cells)
	}
	if m.Cells.Bytes == 0 || m.Cells.HitRatio != 0.5 || m.Cells.Inflight != 0 {
		t.Errorf("cells = %+v", m.Cells)
	}
	if len(m.PerBenchmark) != 1 || m.PerBenchmark[0].Benchmark != "990.count_r" || m.PerBenchmark[0].Measurements != 3 {
		t.Errorf("per_benchmark = %+v", m.PerBenchmark)
	}
	if m.Mem.Allocs == 0 || m.Mem.Bytes == 0 {
		t.Errorf("mem deltas missing: %+v", m.Mem)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, doc := doJSON(t, s.Handler(), "GET", "/v1/benchmarks", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("benchmarks: %d", rec.Code)
	}
	bs := doc["benchmarks"].([]any)
	if len(bs) != 1 {
		t.Fatalf("benchmarks = %+v", bs)
	}
	b := bs[0].(map[string]any)
	if b["name"] != "990.count_r" || len(b["workloads"].([]any)) != 4 {
		t.Errorf("benchmark = %+v", b)
	}
}

func TestCellKey(t *testing.T) {
	base := report.RunConfig{Reps: 3}
	k1 := cellKey("990.count_r", "train", base)
	if k2 := cellKey("990.count_r", "train", base); k2 != k1 {
		t.Error("equal inputs produced different keys")
	}

	// Everything that feeds the measurement changes the key.
	seen := map[string]bool{k1: true}
	c2 := base
	c2.Reps = 4
	c3 := base
	c3.Sampled = true
	distinct := []string{
		cellKey("991.other_r", "train", base),
		cellKey("990.count_r", "refrate", base),
		cellKey("990.count_r", "train", c2),
		cellKey("990.count_r", "train", c3),
	}
	for i, v := range distinct {
		if seen[v] {
			t.Errorf("variant %d collides with an earlier key", i)
		}
		seen[v] = true
	}

	// Matrix selection and presentation do not: include_test widens the
	// plan but never re-identifies a cell.
	c5 := base
	c5.IncludeTest = true
	if cellKey("990.count_r", "train", c5) != k1 {
		t.Error("include_test changed the cell key")
	}
}

func TestQueueFull(t *testing.T) {
	blocker := &countBench{name: "990.count_r", gate: make(chan struct{})}
	suite, err := core.NewSuite(blocker)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Suite: suite, JobWorkers: 1, RunWorkers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(blocker.gate); s.Drain() }()

	// Distinct bodies defeat the cache; worker takes the first, the second
	// fills the depth-1 queue, the third must bounce.
	codes := []int{}
	for reps := 1; reps <= 3; reps++ {
		rec, _ := doJSON(t, s.Handler(), "POST", "/v1/jobs", fmt.Sprintf(`{"config": {"reps": %d}}`, reps))
		codes = append(codes, rec.Code)
	}
	// The worker may or may not have dequeued job 1 before job 2 arrived,
	// but three concurrent one-slot-queue jobs cannot all be accepted.
	if codes[0] != http.StatusAccepted {
		t.Errorf("first submit = %d", codes[0])
	}
	if codes[2] == http.StatusAccepted && codes[1] == http.StatusAccepted {
		// Only possible if the worker dequeued job 2 before job 3 arrived —
		// it cannot have: it is blocked on job 1's gate.
		t.Errorf("all three jobs accepted with queue depth 1: %v", codes)
	}
}
