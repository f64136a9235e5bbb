package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness/report"
	"repro/internal/perf"
)

// budgetBench is genBench whose budget-th execution calls stop, so a fuzzed
// request ends however many cells and repetitions it asks for.
type budgetBench struct {
	*genBench
	runs   atomic.Int64
	budget int64
	stop   func()
}

func (b *budgetBench) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	return execFunc(func(p *perf.Profiler) (core.Result, error) {
		if b.runs.Add(1) == b.budget {
			b.stop()
		}
		return b.genBench.run(w, p)
	}), nil
}

// newFuzzServer serves a one-benchmark suite whose kernel calls stop
// after 32 runs.
func newFuzzServer(t *testing.T) (*Server, *budgetBench) {
	t.Helper()
	b := &budgetBench{genBench: &genBench{name: "991.gen_r"}, budget: 32}
	suite, err := core.NewSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Suite: suite, JobWorkers: 1, RunWorkers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// postBytes posts body to path through the server's handler.
func postBytes(ctx context.Context, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// checkFuzzAnswer holds every answer to a fuzzed request to the service's
// error contract: no 5xx but a draining 503, and every 4xx body a
// well-formed error envelope.
func checkFuzzAnswer(t *testing.T, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code < 400 {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	var env errorEnvelope
	if err := dec.Decode(&env); err != nil || env.Error == "" || env.SchemaVersion != report.SchemaVersion {
		t.Fatalf("request %q: %d body is not an error envelope (%v):\n%s", body, rec.Code, err, rec.Body.String())
	}
	if rec.Code >= 500 && (rec.Code != http.StatusServiceUnavailable || !strings.Contains(env.Error, "draining")) {
		t.Fatalf("request %q: status %d: %s", body, rec.Code, env.Error)
	}
}

// FuzzJobRequest feeds arbitrary bodies through POST /v1/jobs. An
// admitted job runs to a terminal state — one asking for many runs is
// canceled by the kernel's run budget — and a done job must hold a
// decodable envelope.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"benchmarks": ["991.gen_r"], "config": {"reps": 1}, "sections": ["table2"]}`,
		`{"benchmarks": ["991.gen_r"], "config": {"reps": 2}, "sections": ["measurements", "table2", "kernels"]}`,
		`{"benchmarks": ["991.gen_r"], "config": {"reps": 1, "include_test": true}}`,
		`{"benchmarks": ["991.gen_r"], "config": {"reps": 1, "sampled": true}}`,
		`{"config": {"reps": 1000000}}`,
		`{"config": {"reps": 1}, "figure2_top_n": 3}`,
		`{`,
		`{"nope": 1}`,
		`{"benchmarks": ["999.ghost_r"]}`,
		`{"benchmarks": ["991.gen_r", "991.gen_r"]}`,
		`{"config": {"reps": -1}}`,
		`{"sections": ["bogus"]}`,
		`{"figure2_top_n": -1}`,
		`{"config": {"stride": 1}}`,
		`{"config": {"reference": false}}`,
		`{"config": {"sampled": true, "sampled_interval": 1024}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, b := newFuzzServer(t)
		b.stop = func() {
			s.mu.Lock()
			jobs := make([]*job, 0, len(s.jobs))
			for _, id := range s.order {
				jobs = append(jobs, s.jobs[id])
			}
			s.mu.Unlock()
			for _, j := range jobs {
				j.requestCancel()
			}
		}
		rec := postBytes(context.Background(), s, "/v1/jobs", body)
		s.Drain()
		checkFuzzAnswer(t, body, rec)
		if rec.Code >= 400 {
			return
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("request %q: status body: %v", body, err)
		}
		s.mu.Lock()
		j := s.jobs[st.ID]
		s.mu.Unlock()
		if j.status().State == stateDone {
			if _, err := report.Decode(j.resultBytes()); err != nil {
				t.Fatalf("request %q: done job's envelope does not decode: %v", body, err)
			}
		}
	})
}

// FuzzSweepRequest feeds arbitrary bodies through POST /v1/sweeps. The
// kernel's run budget cancels the request, so a large sweep ends early.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"benchmarks":["991.gen_r"],"per_benchmark":6,"seed":7,"k":2,"config":{"reps":1}}`,
		`{"benchmarks":["991.gen_r"],"per_benchmark":8,"seed":3,"k":3}`,
		`{"benchmarks":["991.gen_r"],"per_benchmark":3,"seed":1,"k":1}`,
		`{"benchmarks":["991.gen_r"],"per_benchmark":4,"features":"topdown","config":{"reps":1,"sampled":true}}`,
		`{"benchmarks":["991.gen_r"],"per_benchmark":100000000}`,
		`{"benchmarks":["999.none_r"]}`,
		`{"features":"vibes"}`,
		`{"window":3}`,
		`{"per_benchmark":-2}`,
		`{"bogus":true}`,
		`{"config":{"stride":1}}`,
		`{"config":{"reference":false}}`,
		`{"config":{"sampled":true,"sampled_phases":8}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, b := newFuzzServer(t)
		defer s.Drain()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.stop = cancel
		rec := postBytes(ctx, s, "/v1/sweeps", body)
		checkFuzzAnswer(t, body, rec)
		if rec.Code == http.StatusOK && ctx.Err() == nil {
			if frames := sweepFrames(t, rec.Body.String()); len(frames["report"]) != 1 && len(frames["error"]) != 1 {
				t.Fatalf("request %q: completed sweep stream has no report or error frame:\n%s", body, rec.Body.String())
			}
		}
	})
}
