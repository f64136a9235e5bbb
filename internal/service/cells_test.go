package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchmarks/xalan"
	"repro/internal/core"
	"repro/internal/harness/report"
)

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+id, "")
		switch st["state"] {
		case stateDone, stateFailed, stateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cellCounts(t *testing.T, st map[string]any) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for k, v := range st["cells"].(map[string]any) {
		out[k] = v.(float64)
	}
	return out
}

// TestSingleFlight submits N identical jobs that all block on the same
// gated benchmark: every cell must execute exactly once, with the other
// jobs deduplicating onto the in-flight executions, and all N results
// must be byte-identical. Run under -race this also exercises the
// store's leader/waiter handoff.
func TestSingleFlight(t *testing.T) {
	bench := &countBench{name: "990.count_r", gate: make(chan struct{})}
	suite, err := core.NewSuite(bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Suite: suite, JobWorkers: 4, RunWorkers: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)

	body := `{"benchmarks": ["990.count_r"], "config": {"reps": 1}, "sections": ["table2"]}`
	const jobs = 4
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		rec, doc := doJSON(t, s.Handler(), "POST", "/v1/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d\n%s", i, rec.Code, rec.Body.String())
		}
		ids = append(ids, doc["id"].(string))
	}
	// Hold the gate until every flight is in position: 3 leaders (one per
	// cell, blocked inside the benchmark) and 9 waiters (the other three
	// jobs' cells, blocked on the in-flight entries). Nothing can resolve
	// while the gate is closed, so the counters must get there.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.cells.stats()
		if st.Misses == 3 && st.InflightWaits == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights never lined up: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(bench.gate)

	var local, deduped, cached float64
	var results []string
	for _, id := range ids {
		st := waitTerminal(t, s, id)
		if st["state"] != stateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
		cc := cellCounts(t, st)
		local += cc["local"]
		deduped += cc["deduped"]
		cached += cc["cached"]
		rec, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+id+"/result", "")
		results = append(results, rec.Body.String())
	}

	// The heart of single-flight: 4 jobs × 3 cells, exactly 3 executions.
	if got := bench.runs.Load(); got != 3 {
		t.Errorf("benchmark ran %d times, want 3 (one per cell)", got)
	}
	if local != 3 {
		t.Errorf("local executions across jobs = %v, want 3", local)
	}
	if local+deduped+cached != float64(jobs*3) {
		t.Errorf("cell accounting: local %v + deduped %v + cached %v != %d", local, deduped, cached, jobs*3)
	}
	for i, r := range results[1:] {
		if r != results[0] {
			t.Errorf("result %d differs from result 0", i+1)
		}
	}

	var m Metrics
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Cells.LocalRuns != 3 || m.Cells.Misses != 3 {
		t.Errorf("cells = %+v", m.Cells)
	}
	if m.Cells.InflightWaits == 0 {
		t.Errorf("no inflight waits recorded across %d overlapping jobs: %+v", jobs, m.Cells)
	}
}

// TestCellDedupAcrossJobs is the acceptance scenario: job {A,B} then job
// {B,C} runs B's cells exactly once — the second job reads them from the
// cell cache and executes only C.
func TestCellDedupAcrossJobs(t *testing.T) {
	a := &countBench{name: "901.a_r"}
	b := &countBench{name: "902.b_r"}
	c := &countBench{name: "903.c_r"}
	s := newTestServer(t, a, b, c)

	_, st1 := submitAndWait(t, s, `{"benchmarks": ["901.a_r", "902.b_r"], "config": {"reps": 1}}`)
	if st1["state"] != stateDone {
		t.Fatalf("job 1: %+v", st1)
	}
	if a.runs.Load() != 3 || b.runs.Load() != 3 {
		t.Fatalf("job 1 runs: a=%d b=%d, want 3 each", a.runs.Load(), b.runs.Load())
	}

	_, st2 := submitAndWait(t, s, `{"benchmarks": ["902.b_r", "903.c_r"], "config": {"reps": 1}}`)
	if st2["state"] != stateDone {
		t.Fatalf("job 2: %+v", st2)
	}
	if got := b.runs.Load(); got != 3 {
		t.Errorf("B re-executed: %d runs, want 3", got)
	}
	if got := c.runs.Load(); got != 3 {
		t.Errorf("C ran %d times, want 3", got)
	}
	cc := cellCounts(t, st2)
	if cc["cached"] != 3 || cc["local"] != 3 {
		t.Errorf("job 2 cells = %v, want 3 cached (B) + 3 local (C)", cc)
	}
}

// TestPresentationOnlyChangeIsCacheHit pins the measurement/presentation
// split: a repeat request differing only in sections and figure2_top_n —
// and even one widening the matrix with include_test — reuses every
// already-measured cell.
func TestPresentationOnlyChangeIsCacheHit(t *testing.T) {
	bench := &countBench{name: "990.count_r"}
	s := newTestServer(t, bench)

	_, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}, "sections": ["table2"]}`)
	if st["state"] != stateDone {
		t.Fatalf("first job: %+v", st)
	}
	runs := bench.runs.Load()

	// Same measurements, different presentation: born done, zero runs.
	rec, st2 := doJSON(t, s.Handler(), "POST", "/v1/jobs",
		`{"benchmarks": ["990.count_r"], "config": {"reps": 1}, "sections": ["kernels", "figure1"], "figure2_top_n": 3}`)
	if rec.Code != http.StatusOK || st2["state"] != stateDone || st2["cached"] != true {
		t.Fatalf("section-only change missed the cache: %d %+v", rec.Code, st2)
	}
	if got := bench.runs.Load(); got != runs {
		t.Errorf("section-only change executed benchmarks: runs %d → %d", runs, got)
	}
	recR, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+st2["id"].(string)+"/result", "")
	env, err := report.Decode(recR.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if env.Table2 != nil || env.Kernels == nil || env.Figure1 == nil {
		t.Errorf("presentation not applied: table2=%v kernels=%v figure1=%v",
			env.Table2 != nil, env.Kernels != nil, env.Figure1 != nil)
	}

	// include_test widens the plan by one cell; the three measured cells
	// are reused and only the test workload executes.
	_, st3 := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1, "include_test": true}}`)
	if st3["state"] != stateDone {
		t.Fatalf("include_test job: %+v", st3)
	}
	if got := bench.runs.Load(); got != runs+1 {
		t.Errorf("include_test ran %d new cells, want 1", got-runs)
	}
	cc := cellCounts(t, st3)
	if cc["cached"] != 3 || cc["local"] != 1 {
		t.Errorf("include_test cells = %v, want 3 cached + 1 local", cc)
	}
}

// normalizeWall blanks the one nondeterministic envelope field so byte
// comparisons test everything else, exactly as scripts/serve-smoke.sh does.
var wallRe = regexp.MustCompile(`"wall_seconds": [0-9.eE+-]+`)

func normalizeWall(s string) string {
	return wallRe.ReplaceAllString(s, `"wall_seconds": 0`)
}

// twoWorkerCoordinator builds a coordinator backed by two worker daemons,
// each with its own suite of fresh benchmark instances.
func twoWorkerCoordinator(t *testing.T) (*Server, []*countBench) {
	t.Helper()
	var workerURLs []string
	var workerBenches []*countBench
	for i := 0; i < 2; i++ {
		wb := &countBench{name: "990.count_r"}
		suite, err := core.NewSuite(wb)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := NewServer(Config{Suite: suite, WorkerOnly: true, RunWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ws.Handler())
		t.Cleanup(ts.Close)
		workerURLs = append(workerURLs, ts.URL)
		workerBenches = append(workerBenches, wb)
	}
	coordBench := &countBench{name: "990.count_r"}
	suite, err := core.NewSuite(coordBench)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewServer(Config{Suite: suite, JobWorkers: 1, RunWorkers: 1, Workers: workerURLs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Drain)
	return coord, append(workerBenches, coordBench)
}

// TestCoordinatorWorkerBitIdentity proves the merge-determinism claim:
// a coordinator sharding cells across two workers produces a report.Suite
// envelope byte-identical to a single-node run (wall_seconds normalized),
// and executes nothing locally while the fleet is healthy.
func TestCoordinatorWorkerBitIdentity(t *testing.T) {
	body := `{"benchmarks": ["990.count_r"], "config": {"reps": 2}, "sections": ["measurements", "table2", "kernels"]}`

	single := newTestServer(t, &countBench{name: "990.count_r"})
	idS, stS := submitAndWait(t, single, body)
	if stS["state"] != stateDone {
		t.Fatalf("single-node job: %+v", stS)
	}
	recS, _ := doJSON(t, single.Handler(), "GET", "/v1/jobs/"+idS+"/result", "")

	coord, benches := twoWorkerCoordinator(t)
	idC, stC := submitAndWait(t, coord, body)
	if stC["state"] != stateDone {
		t.Fatalf("coordinator job: %+v", stC)
	}
	cc := cellCounts(t, stC)
	if cc["remote"] != 3 || cc["local"] != 0 {
		t.Errorf("coordinator cells = %v, want 3 remote + 0 local", cc)
	}
	coordBench := benches[len(benches)-1]
	if coordBench.runs.Load() != 0 {
		t.Errorf("coordinator executed %d cells locally with a healthy fleet", coordBench.runs.Load())
	}
	if ran := benches[0].runs.Load() + benches[1].runs.Load(); ran != 6 {
		t.Errorf("workers ran %d times, want 6 (3 cells × 2 reps)", ran)
	}

	recC, _ := doJSON(t, coord.Handler(), "GET", "/v1/jobs/"+idC+"/result", "")
	if normalizeWall(recC.Body.String()) != normalizeWall(recS.Body.String()) {
		t.Error("coordinator envelope differs from single-node envelope (wall_seconds normalized)")
	}
}

// TestWorkerFailover: with every worker dead the coordinator falls back
// to local execution per cell; with one dead and one live worker the
// retry finds the live one and no cell runs locally.
func TestWorkerFailover(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	t.Run("all dead → local", func(t *testing.T) {
		bench := &countBench{name: "990.count_r"}
		suite, err := core.NewSuite(bench)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(Config{Suite: suite, Workers: []string{dead.URL}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Drain)
		_, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`)
		if st["state"] != stateDone {
			t.Fatalf("job: %+v", st)
		}
		if cc := cellCounts(t, st); cc["local"] != 3 || cc["remote"] != 0 {
			t.Errorf("cells = %v, want 3 local", cc)
		}
		if bench.runs.Load() != 3 {
			t.Errorf("local fallback ran %d times, want 3", bench.runs.Load())
		}
		if stats := s.cells.stats(); stats.RemoteFailovers != 3 || stats.RemoteErrors == 0 {
			t.Errorf("cells = %+v, want 3 failovers", stats)
		}
	})

	t.Run("one dead → retry next", func(t *testing.T) {
		wb := &countBench{name: "990.count_r"}
		wsuite, err := core.NewSuite(wb)
		if err != nil {
			t.Fatal(err)
		}
		worker, err := NewServer(Config{Suite: wsuite, WorkerOnly: true, RunWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		live := httptest.NewServer(worker.Handler())
		t.Cleanup(live.Close)

		bench := &countBench{name: "990.count_r"}
		suite, err := core.NewSuite(bench)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(Config{Suite: suite, Workers: []string{dead.URL, live.URL}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Drain)
		_, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`)
		if st["state"] != stateDone {
			t.Fatalf("job: %+v", st)
		}
		if cc := cellCounts(t, st); cc["remote"] != 3 || cc["local"] != 0 {
			t.Errorf("cells = %v, want 3 remote via the live worker", cc)
		}
		if bench.runs.Load() != 0 {
			t.Errorf("coordinator ran %d cells locally despite a live worker", bench.runs.Load())
		}
		if wb.runs.Load() != 3 {
			t.Errorf("live worker ran %d times, want 3", wb.runs.Load())
		}
	})
}

// TestWorkerMalformedResponse: a worker that answers 200 with a
// truncated or mismatched Measurement body must count as a remote error
// and fall through to local execution — and the garbage must never enter
// the cell store. The /metrics remote-error detail must name the cell
// key, benchmark/workload and attempt number, not just the worker.
func TestWorkerMalformedResponse(t *testing.T) {
	bodies := map[string]string{
		"truncated json":    `{"schema_version": 1, "measurement": {"benchmark": "990.`,
		"wrong measurement": `{"schema_version": 1, "measurement": {"benchmark": "990.count_r", "workload": "not-a-workload"}}`,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body))
			}))
			t.Cleanup(bad.Close)

			bench := &countBench{name: "990.count_r"}
			suite, err := core.NewSuite(bench)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewServer(Config{Suite: suite, Workers: []string{bad.URL}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Drain)

			_, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`)
			if st["state"] != stateDone {
				t.Fatalf("job: %+v", st)
			}
			if cc := cellCounts(t, st); cc["local"] != 3 || cc["remote"] != 0 {
				t.Errorf("cells = %v, want 3 local after malformed worker answers", cc)
			}
			if bench.runs.Load() != 3 {
				t.Errorf("local fallback ran %d times, want 3", bench.runs.Load())
			}
			stats := s.cells.stats()
			if stats.RemoteErrors != 3 || stats.RemoteFailovers != 3 {
				t.Errorf("remote_errors=%d remote_failovers=%d, want 3/3", stats.RemoteErrors, stats.RemoteFailovers)
			}
			if len(stats.RemoteErrorLog) != 3 {
				t.Fatalf("remote_error_log has %d entries, want 3: %v", len(stats.RemoteErrorLog), stats.RemoteErrorLog)
			}
			for _, entry := range stats.RemoteErrorLog {
				if !strings.HasPrefix(entry, "cell ") {
					t.Errorf("error detail does not lead with the cell key: %q", entry)
				}
				if !strings.Contains(entry, "990.count_r/") {
					t.Errorf("error detail missing benchmark/workload: %q", entry)
				}
				if !strings.Contains(entry, "attempt 1/1:") {
					t.Errorf("error detail missing attempt number: %q", entry)
				}
				if !strings.Contains(entry, "worker "+bad.URL) {
					t.Errorf("error detail missing the worker error: %q", entry)
				}
			}

			// The garbage must not have poisoned the store: the same job
			// resubmitted is born done from clean locally-run cells, with
			// zero additional executions and an identical envelope.
			rec1, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+jobID(t, st)+"/result", "")
			rec2, st2 := doJSON(t, s.Handler(), "POST", "/v1/jobs", `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`)
			if rec2.Code != http.StatusOK || st2["state"] != stateDone || st2["cached"] != true {
				t.Fatalf("resubmit not served from cache: code=%d %+v", rec2.Code, st2)
			}
			if bench.runs.Load() != 3 {
				t.Errorf("resubmit re-executed: %d runs", bench.runs.Load())
			}
			rec3, _ := doJSON(t, s.Handler(), "GET", "/v1/jobs/"+jobID(t, st2)+"/result", "")
			if rec1.Body.String() != rec3.Body.String() {
				t.Error("cached envelope differs from the original")
			}
		})
	}
}

func jobID(t *testing.T, st map[string]any) string {
	t.Helper()
	id, ok := st["id"].(string)
	if !ok || id == "" {
		t.Fatalf("status has no id: %+v", st)
	}
	return id
}

// TestCellExecuteEndpoint exercises the worker wire protocol directly.
func TestCellExecuteEndpoint(t *testing.T) {
	s := newTestServer(t, &countBench{name: "990.count_r"}, xalan.New())

	rec, doc := doJSON(t, s.Handler(), "POST", "/v1/cells:execute",
		`{"benchmark": "990.count_r", "workload": "train", "config": {"reps": 1}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("cells:execute = %d\n%s", rec.Code, rec.Body.String())
	}
	if doc["schema_version"] != float64(report.SchemaVersion) {
		t.Errorf("schema_version = %v", doc["schema_version"])
	}
	m := doc["measurement"].(map[string]any)
	if m["benchmark"] != "990.count_r" || m["workload"] != "train" || m["checksum"] == float64(0) {
		t.Errorf("measurement = %+v", m)
	}

	// Repeat: single-flight store serves the cached cell.
	doJSON(t, s.Handler(), "POST", "/v1/cells:execute",
		`{"benchmark": "990.count_r", "workload": "train", "config": {"reps": 1}}`)
	if st := s.cells.stats(); st.Hits != 1 || st.LocalRuns != 1 {
		t.Errorf("cells = %+v, want 1 hit and 1 local run", st)
	}

	for name, body := range map[string]string{
		"unknown benchmark": `{"benchmark": "999.ghost_r", "workload": "train", "config": {}}`,
		"unknown workload":  `{"benchmark": "990.count_r", "workload": "ghost", "config": {}}`,
		// Outside the generated domain: xalancbmk's generator would
		// panic on a negative seed, so the name must never reach it.
		"out-of-domain seed": `{"benchmark": "523.xalancbmk_r", "workload": "gen.s-7.1", "config": {}}`,
		"negative reps":      `{"benchmark": "990.count_r", "workload": "train", "config": {"reps": -1}}`,
		"bad json":           `{`,
	} {
		if rec, _ := doJSON(t, s.Handler(), "POST", "/v1/cells:execute", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, rec.Code)
		}
	}
}

// postCell sends one /v1/cells:execute request straight to the handler.
// It reports nothing through t, so concurrent goroutines may call it.
func postCell(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cells:execute", strings.NewReader(body)))
	return rec
}

// TestCellExecuteHitResolvesNothing pins the hit path of
// /v1/cells:execute: once a cell is cached, a repeat request is answered
// from the store by its names alone, with no workload generated and no
// inventory built, and with the first response's bytes.
func TestCellExecuteHitResolvesNothing(t *testing.T) {
	gb := &genBench{name: "991.gen_r"}
	cb := &countBench{name: "990.count_r"}
	s := newTestServer(t, gb, cb)
	bodies := []string{
		`{"benchmark": "991.gen_r", "workload": "gen.s1.15", "config": {"reps": 1}}`,
		`{"benchmark": "990.count_r", "workload": "train", "config": {"reps": 1}}`,
	}
	first := make([]string, len(bodies))
	for i, body := range bodies {
		rec := postCell(s, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm %s: %d\n%s", body, rec.Code, rec.Body.String())
		}
		first[i] = rec.Body.String()
	}
	gens, invs := gb.generations.Load(), cb.inventories.Load()
	before := s.cells.stats()

	const n = 25
	for r := 0; r < n; r++ {
		for i, body := range bodies {
			rec := postCell(s, body)
			if rec.Code != http.StatusOK || rec.Body.String() != first[i] {
				t.Fatalf("hit %d of %s: %d, want 200 with the first response's bytes\n%s", r, body, rec.Code, rec.Body.String())
			}
		}
	}
	if d := gb.generations.Load() - gens; d != 0 {
		t.Errorf("hits generated %d workloads, want 0", d)
	}
	if d := cb.inventories.Load() - invs; d != 0 {
		t.Errorf("hits built %d inventories, want 0", d)
	}
	after := s.cells.stats()
	if d := after.Hits - before.Hits; d != 2*n {
		t.Errorf("hits grew by %d, want %d", d, 2*n)
	}
	if after.LocalRuns != before.LocalRuns || after.Misses != before.Misses {
		t.Errorf("hits ran or missed cells: local runs %d -> %d, misses %d -> %d",
			before.LocalRuns, after.LocalRuns, before.Misses, after.Misses)
	}
}

// brokenGenBench is genBench whose generator fails at one index, after
// waiting for gate when gate is set.
type brokenGenBench struct {
	*genBench
	bad  int
	gate chan struct{}
}

var errBrokenGenerator = errors.New("broken generator")

func (b brokenGenBench) GenerateWorkload(seed int64, index int) (core.Workload, error) {
	if index == b.bad {
		if b.gate != nil {
			<-b.gate
		}
		return nil, errBrokenGenerator
	}
	return b.genBench.GenerateWorkload(seed, index)
}

// TestCellExecuteResolveErrors covers names that fail to resolve now that
// only a flight leader resolves: the leader and every request waiting on
// its flight answer 400 with the resolution error, the failed flight
// leaves nothing in the store, and the server goes on serving.
func TestCellExecuteResolveErrors(t *testing.T) {
	gb := brokenGenBench{genBench: &genBench{name: "991.gen_r"}, bad: 3, gate: make(chan struct{})}
	s := newTestServer(t, gb, &countBench{name: "990.count_r"})
	const body = `{"benchmark": "991.gen_r", "workload": "gen.s1.3", "config": {"reps": 1}}`

	// Eight requests for the same cell: the leader blocks in the generator
	// until the other seven wait on its flight, so they share its error.
	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = postCell(s, body)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.cells.stats().InflightWaits < n-1 {
		if time.Now().After(deadline) {
			close(gb.gate)
			wg.Wait()
			t.Fatalf("requests never joined one flight: %+v", s.cells.stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gb.gate)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), errBrokenGenerator.Error()) {
			t.Errorf("request %d: %d, want 400 with %q\n%s", i, rec.Code, errBrokenGenerator, rec.Body.String())
		}
	}
	st := s.cells.stats()
	if st.Inflight != 0 || st.Cells != 0 || st.Misses != 1 || st.InflightWaits != n-1 || st.LocalRuns != 0 {
		t.Errorf("store after a failed resolution = %+v, want one miss, %d waits and no entries", st, n-1)
	}

	// A generated name sent to a benchmark that cannot generate is
	// rejected before the store; an unknown inventory name fails its
	// flight's resolution. Both answer 400.
	for _, bad := range []string{
		`{"benchmark": "990.count_r", "workload": "gen.s1.2", "config": {}}`,
		`{"benchmark": "990.count_r", "workload": "ghost", "config": {}}`,
	} {
		if rec := postCell(s, bad); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "no such workload") {
			t.Errorf("%s: %d, want 400 naming the missing workload\n%s", bad, rec.Code, rec.Body.String())
		}
	}
	if st := s.cells.stats(); st.Misses != 2 || st.Inflight != 0 || st.Cells != 0 {
		t.Errorf("store = %+v, want only the unknown inventory name counted as a second miss", st)
	}

	if rec := postCell(s, `{"benchmark": "991.gen_r", "workload": "gen.s1.4", "config": {"reps": 1}}`); rec.Code != http.StatusOK {
		t.Fatalf("valid cell after failed resolutions: %d\n%s", rec.Code, rec.Body.String())
	}
	if st := s.cells.stats(); st.Cells != 1 || st.LocalRuns != 1 {
		t.Errorf("store = %+v, want the valid cell cached", st)
	}
}

// TestCacheEndpoints covers GET /v1/cache introspection and DELETE
// /v1/cache flush-then-re-execute.
func TestCacheEndpoints(t *testing.T) {
	bench := &countBench{name: "990.count_r"}
	s := newTestServer(t, bench)
	body := `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`
	if _, st := submitAndWait(t, s, body); st["state"] != stateDone {
		t.Fatalf("job: %+v", st)
	}

	rec, doc := doJSON(t, s.Handler(), "GET", "/v1/cache", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/cache = %d", rec.Code)
	}
	cache := doc["cache"].(map[string]any)
	if cache["cells"] != float64(3) || cache["bytes"] == float64(0) {
		t.Errorf("cache = %+v", cache)
	}
	per := doc["per_benchmark"].([]any)
	if len(per) != 1 {
		t.Fatalf("per_benchmark = %+v", per)
	}
	if row := per[0].(map[string]any); row["benchmark"] != "990.count_r" || row["cells"] != float64(3) {
		t.Errorf("per_benchmark row = %+v", row)
	}

	rec, doc = doJSON(t, s.Handler(), "DELETE", "/v1/cache", "")
	if rec.Code != http.StatusOK || doc["flushed"] != float64(3) {
		t.Fatalf("DELETE /v1/cache = %d %+v", rec.Code, doc)
	}
	_, doc = doJSON(t, s.Handler(), "GET", "/v1/cache", "")
	if cache := doc["cache"].(map[string]any); cache["cells"] != float64(0) || cache["bytes"] != float64(0) {
		t.Errorf("cache after flush = %+v", cache)
	}

	// A repeat job after the flush re-executes every cell.
	if rec, _ := doJSON(t, s.Handler(), "POST", "/v1/jobs", body); rec.Code != http.StatusAccepted {
		t.Fatalf("post-flush submit = %d, want 202", rec.Code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for bench.runs.Load() != 6 {
		if time.Now().After(deadline) {
			t.Fatalf("post-flush job ran %d cells, want 3 more", bench.runs.Load()-3)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCellKeyFormulaPinned: cellKey must hash the same lines as when the
// sampled interval and cluster count were settable, so cached cells keep
// their keys: zeros on an exact cell, 16Ki ops and 16 phases on a sampled
// one. The formula is spelled out here with literals, so changing the
// fixed sampled values or the schema version changes the keys and fails.
func TestCellKeyFormulaPinned(t *testing.T) {
	formula := func(reps int, sampled bool, interval uint64, phases int) string {
		h := sha256.New()
		fmt.Fprintf(h, "schema=%d\n", 2)
		h.Write([]byte(buildIdentity()))
		fmt.Fprintf(h, "benchmark=%s workload=%s\n", "557.xz_r", "train")
		fmt.Fprintf(h, "reps=%d\n", reps)
		fmt.Fprintf(h, "sampled=%t interval=%d phases=%d\n", sampled, interval, phases)
		return hex.EncodeToString(h.Sum(nil))
	}
	if got, want := cellKey("557.xz_r", "train", report.RunConfig{Reps: 3}), formula(3, false, 0, 0); got != want {
		t.Errorf("exact cell key = %s, want %s", got, want)
	}
	if got, want := cellKey("557.xz_r", "train", report.RunConfig{Reps: 1, Sampled: true}), formula(1, true, 16<<10, 16); got != want {
		t.Errorf("sampled cell key = %s, want %s", got, want)
	}
}

// TestSampledCellKeyDistinct: a sampled cell and its exact twin must never
// alias in the cache — extrapolated counters differ from exact ones — and
// sampled cells of different reps stay apart as exact ones do. The
// integration half proves it end to end: after an exact job resolves a
// cell, a sampled job for the same matrix point must execute, not hit the
// cache.
func TestSampledCellKeyDistinct(t *testing.T) {
	keys := map[string]string{
		"exact":          cellKey("b", "w", report.RunConfig{Reps: 1}),
		"sampled":        cellKey("b", "w", report.RunConfig{Reps: 1, Sampled: true}),
		"sampled reps 3": cellKey("b", "w", report.RunConfig{Reps: 3, Sampled: true}),
		"exact reps 3":   cellKey("b", "w", report.RunConfig{Reps: 3}),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("cell keys alias: %s == %s", name, prev)
		}
		seen[k] = name
	}

	bench := &countBench{name: "990.count_r"}
	s := newTestServer(t, bench)
	_, st := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1}}`)
	if st["state"] != stateDone {
		t.Fatalf("exact job: %+v", st)
	}
	runs := bench.runs.Load()
	_, st2 := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1, "sampled": true}}`)
	if st2["state"] != stateDone {
		t.Fatalf("sampled job: %+v", st2)
	}
	if st2["cached"] == true {
		t.Fatal("sampled job must not resolve from exact cells")
	}
	if got := bench.runs.Load(); got == runs {
		t.Fatal("sampled job executed no benchmarks")
	}
	// Same sampled config again: now it is a pure cache hit.
	_, st3 := submitAndWait(t, s, `{"benchmarks": ["990.count_r"], "config": {"reps": 1, "sampled": true}}`)
	if st3["state"] != stateDone || st3["cached"] != true {
		t.Fatalf("identical sampled job missed the cache: %+v", st3)
	}
}
