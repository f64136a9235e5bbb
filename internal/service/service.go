// Package service implements albertad, the characterization daemon: a
// long-running HTTP server that runs the harness's benchmark × workload
// matrix on demand and serves the results through the versioned
// report.Suite envelope (schema_version 2) — the same document
// `albertarun -json` emits, so service results and one-shot CLI results
// are interchangeable.
//
// Architecture: POST /v1/jobs enqueues a characterization request onto a
// bounded queue drained by a fixed pool of job workers. A job is planned
// into cells — one (benchmark × workload × normalized config) point of
// the matrix — and its cells fan out on harness.ForEach, at most the
// server's cell window at a time (the same window POST /v1/sweeps
// uses). Each cell resolves independently through the cell-granular
// result cache (cache.go): cached cells are read back,
// cold cells execute under single-flight so concurrent jobs needing the
// same cell share one execution, and when a worker fleet is configured
// (Config.Workers) cold cells are sharded across it over HTTP with
// failover to local execution (exec.go). The envelope is then assembled
// from the job's cells via report.Assemble — byte-identical to a
// monolithic run, however the cells were obtained. Per-job progress
// streams over SSE (Completed is monotone, the final terminal event
// reports Completed == Total).
//
// The same server is also the worker side of the protocol: POST
// /v1/cells:execute runs one cell through the same store, so a worker
// deduplicates and caches exactly like a coordinator.
//
// The package deliberately never reads the wall clock: timing facts come
// from the measurements' WallSeconds fields and allocation counters from
// runtime.ReadMemStats, keeping the whole tree inside albertalint's
// determinism surface.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
)

// Config sizes a Server.
type Config struct {
	// Suite is the benchmark inventory served. Required.
	Suite *core.Suite
	// JobWorkers bounds how many jobs run concurrently (default 1).
	JobWorkers int
	// RunWorkers bounds concurrent local cell executions across the whole
	// server — jobs and /v1/cells:execute requests together (default 1,
	// not GOMAXPROCS, so a daemon's default footprint stays small and
	// predictable).
	RunWorkers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 16). A full queue answers 503.
	QueueDepth int
	// Workers are base URLs of worker daemons (e.g. "http://host:8081").
	// When non-empty the server runs as a coordinator: cold cells are
	// sharded across the fleet by a stable hash of the cell key, with one
	// retry on the next worker and failover to local execution.
	Workers []string
	// RemoteFanout bounds concurrent in-flight remote cell executions
	// (default 2 × len(Workers)).
	RemoteFanout int
	// WorkerOnly serves only the worker surface — /v1/cells:execute, the
	// cache resources, /metrics, /healthz — and starts no job workers.
	WorkerOnly bool
	// Client performs worker HTTP calls (default a plain http.Client).
	Client *http.Client
}

// Server is the albertad HTTP service. Create with NewServer, serve its
// Handler, and call Drain before exit to finish in-flight jobs.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	cells  *cellStore
	client *http.Client

	// localSem bounds concurrent local cell executions server-wide;
	// remoteSem bounds in-flight remote executions when coordinating.
	localSem  chan struct{}
	remoteSem chan struct{}
	// window bounds the cells one job or sweep resolves at once:
	// 2 × RunWorkers, plus RemoteFanout when coordinating a fleet, so
	// resolution keeps every local and remote slot busy.
	window int

	mu       sync.Mutex
	jobs     map[string]*job //lint:guardedby mu
	order    []string        //lint:guardedby mu — job ids in creation order
	nextID   int             //lint:guardedby mu
	draining bool            //lint:guardedby mu
	queue    chan *job

	wg      sync.WaitGroup // job workers
	sweepWG sync.WaitGroup // in-flight POST /v1/sweeps requests

	// memBase is the allocation baseline captured at construction;
	// /metrics reports deltas against it.
	memBase runtime.MemStats

	// benchWall / benchCells accumulate per-benchmark measured wall
	// seconds and executed-cell counts (cache hits are not re-counted).
	statsMu    sync.Mutex
	benchWall  map[string]float64 //lint:guardedby statsMu
	benchCells map[string]int     //lint:guardedby statsMu
}

// NewServer builds the service and starts its job workers.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Suite == nil {
		return nil, errors.New("service: Config.Suite is required")
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.RunWorkers <= 0 {
		cfg.RunWorkers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.RemoteFanout <= 0 {
		cfg.RemoteFanout = 2 * len(cfg.Workers)
	}
	if cfg.RemoteFanout <= 0 {
		cfg.RemoteFanout = 1 // no fleet: the semaphore is never used
	}
	s := &Server{
		cfg:        cfg,
		cells:      newCellStore(),
		client:     cfg.Client,
		localSem:   make(chan struct{}, cfg.RunWorkers),
		remoteSem:  make(chan struct{}, cfg.RemoteFanout),
		window:     2 * cfg.RunWorkers,
		jobs:       map[string]*job{},
		queue:      make(chan *job, cfg.QueueDepth),
		benchWall:  map[string]float64{},
		benchCells: map[string]int{},
	}
	if s.client == nil {
		s.client = &http.Client{}
	}
	if len(cfg.Workers) > 0 {
		s.window += cfg.RemoteFanout
	}
	runtime.ReadMemStats(&s.memBase)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheGet)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCacheFlush)
	s.mux.HandleFunc("POST /v1/cells:execute", s.handleCellExecute)
	if !cfg.WorkerOnly {
		s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
		s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
		s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
		s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
		s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
		s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
		s.wg.Add(cfg.JobWorkers)
		for i := 0; i < cfg.JobWorkers; i++ {
			go s.worker()
		}
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting new jobs and sweeps (POST answers 503) and
// blocks until every queued and running job — and every in-flight sweep
// stream — reaches a terminal state. Safe to call once; used for
// graceful SIGTERM shutdown. Worker-only servers drain trivially —
// /v1/cells:execute rides request contexts, not the queue.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	if !already {
		s.wg.Wait()
		s.sweepWG.Wait()
		// Drop keep-alive connections to the worker fleet; their readLoop
		// goroutines would otherwise outlive the server (leakcheck).
		s.client.CloseIdleConnections()
	}
}

// maxRequestBytes bounds every JSON request body; a larger one is
// answered 413 without being read past the bound.
const maxRequestBytes = 1 << 20

// decodeRequest decodes r's JSON body into v, rejecting unknown fields
// and bodies over maxRequestBytes. On failure it has already written the
// error envelope (413 for an oversized body, 400 otherwise).
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "parsing request: %v", err)
		return false
	}
	return true
}

// runOptions is the service's one report.RunConfig → harness.Options
// conversion: the config's measurement fields, normalized. IncludeTest
// widens a job's plan but never changes a cell, so it is left to the
// caller.
func runOptions(cfg report.RunConfig) (harness.Options, error) {
	return harness.Options{
		Reps:    cfg.Reps,
		Sampled: cfg.Sampled,
	}.Normalize()
}

// errorEnvelope is the uniform JSON error body.
type errorEnvelope struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.MarshalIndent(errorEnvelope{SchemaVersion: report.SchemaVersion, Error: fmt.Sprintf(format, args...)}, "", "  ")
	w.Write(append(data, '\n'))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": report.SchemaVersion,
		"status":         "ok",
		"draining":       draining,
	})
}

// handleCacheGet is GET /v1/cache: operator introspection of the cell
// store — counts, bytes, hit ratio, and the per-benchmark breakdown.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": report.SchemaVersion,
		"cache":          s.cells.stats(),
		"per_benchmark":  s.cells.breakdown(),
	})
}

// handleCacheFlush is DELETE /v1/cache: drop every resolved cell (cells
// currently executing are untouched) and report how many were flushed.
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": report.SchemaVersion,
		"flushed":        s.cells.flush(),
	})
}

// benchmarkInfo is one row of GET /v1/benchmarks.
type benchmarkInfo struct {
	Name      string         `json:"name"`
	Area      string         `json:"area"`
	Workloads []workloadInfo `json:"workloads"`
}

type workloadInfo struct {
	Name string    `json:"name"`
	Kind core.Kind `json:"kind"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var out []benchmarkInfo
	for _, b := range s.cfg.Suite.Benchmarks() {
		ws, err := b.Workloads()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%s: %v", b.Name(), err)
			return
		}
		info := benchmarkInfo{Name: b.Name(), Area: b.Area()}
		for _, wl := range ws {
			info.Workloads = append(info.Workloads, workloadInfo{Name: wl.WorkloadName(), Kind: wl.WorkloadKind()})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": report.SchemaVersion,
		"benchmarks":     out,
	})
}

// handleSubmit is POST /v1/jobs: validate and plan into cells. A job
// whose every cell is already resolved is born done — the envelope is
// assembled synchronously from the cache and answered 200 without
// touching the queue. Otherwise enqueue (202) unless draining or full
// (503).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	nr, err := s.normalizeRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), nr)

	if ms, ok := s.cells.allResolved(nr.cellKeys()); ok {
		// Every cell is cached: the job is born done, nothing executes.
		// A request differing only in presentation (sections, top-N)
		// from a completed one lands here by construction — presentation
		// is not part of cell identity.
		env, err := buildEnvelope(nr, ms)
		if err != nil {
			s.nextID--
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
		j.finishFromCache(env)
		writeJSON(w, http.StatusOK, j.status())
		return
	}

	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, j.status())
	default:
		s.nextID-- // job was never admitted
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "job queue is full (depth %d)", s.cfg.QueueDepth)
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": report.SchemaVersion,
		"jobs":           statuses,
	})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, "job %s already %s", j.id, j.status().State)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	st := j.status()
	if st.State != stateDone {
		writeError(w, http.StatusConflict, "job %s is %s, result not available", j.id, st.State)
		return
	}
	// Envelope bytes are assembled from cached cells deterministically —
	// bit-identical across repeats by construction.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(j.resultBytes())
}

// worker drains the job queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// buildEnvelope assembles a job's envelope bytes from its resolved cells,
// in plan order. Plan order is sorted-benchmark × workload-inventory
// order — the same order a monolithic harness.Runner walks — so Assemble
// reconstructs identical Results and Build/Encode (both deterministic)
// produce identical bytes whether the cells came from one process, the
// cache, or a worker fleet.
func buildEnvelope(nr normalized, ms []report.Measurement) ([]byte, error) {
	env, err := report.Build(report.Assemble(ms), nr.cfg, report.BuildOptions{
		Sections:    nr.sections,
		Figure2TopN: nr.topN,
	})
	if err != nil {
		return nil, err
	}
	return env.Encode()
}

// runJob executes one queued job end to end: resolve every cell of the
// plan (cache / single-flight dedup / remote worker / local execution),
// assemble and encode the envelope, publish the terminal state.
func (s *Server) runJob(j *job) {
	if !j.begin() {
		return // canceled while queued; terminal event already published
	}
	ms, err := s.resolveJobCells(j)
	if err != nil {
		if j.ctx.Err() != nil {
			j.finishCanceled()
		} else {
			j.fail(err)
		}
		return
	}
	data, err := buildEnvelope(j.req, ms)
	if err != nil {
		j.fail(err)
		return
	}
	j.finish(data)
}

// resolveJobCells resolves every cell of the job's plan on
// harness.ForEach, at most the server's cell window at a time; actual
// executions are further bounded by the server's semaphores (localSem,
// remoteSem). The first cell error cancels the rest, publishes the job's
// one error event and fails the job; a canceled job reports
// context.Canceled.
func (s *Server) resolveJobCells(j *job) ([]report.Measurement, error) {
	cells := j.req.cells
	ms := make([]report.Measurement, len(cells))
	var failed sync.Once
	err := harness.ForEach(j.ctx, len(cells), s.window, func(ctx context.Context, _, i int) error {
		c := cells[i]
		m, out, err := s.cellMeasurement(ctx, c, j.req.cfg, true, func() { j.cellStarted(c) })
		if err != nil {
			// A cell that failed only because an earlier failure
			// canceled ctx publishes nothing.
			if ctx.Err() == nil {
				failed.Do(func() { j.cellFailed(c, err) })
			}
			return err
		}
		ms[i] = m
		j.cellDone(c, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// plannedCell is one cell: a benchmark, a workload name and the cell's
// cache identity. Job and sweep plans hold the workload already and set
// w; a cell named by a /v1/cells:execute request leaves it nil, and its
// flight leader resolves the name (executeCell).
type plannedCell struct {
	bench core.Benchmark
	name  string
	w     core.Workload
	key   string
}

// normalized is a validated, canonicalized job request plus its cell plan.
type normalized struct {
	benchmarks []string // sorted, validated
	cfg        report.RunConfig
	sections   report.Sections
	topN       int
	// cells is the benchmark × workload plan in sorted-benchmark ×
	// workload-inventory order; total = len(cells).
	cells []plannedCell
	total int
}

func (n normalized) cellKeys() []string {
	keys := make([]string, len(n.cells))
	for i, c := range n.cells {
		keys[i] = c.key
	}
	return keys
}

// normalizeRequest validates a JobRequest against the suite and collapses
// it to canonical form, the single place request-side defaults live: the
// harness's own Options.Normalize supplies the reps default, empty
// benchmark lists mean the whole suite, empty section lists mean all.
// The request is planned into cells here; include_test widens the plan
// but is not part of any cell's identity.
func (s *Server) normalizeRequest(req JobRequest) (normalized, error) {
	opts, err := runOptions(req.Config)
	if err != nil {
		return normalized{}, err
	}
	opts.IncludeTest = req.Config.IncludeTest
	var n normalized
	n.cfg = opts.ReportConfig()

	if len(req.Benchmarks) == 0 {
		for _, b := range s.cfg.Suite.Benchmarks() {
			n.benchmarks = append(n.benchmarks, b.Name())
		}
	} else {
		seen := map[string]bool{}
		for _, name := range req.Benchmarks {
			if _, ok := s.cfg.Suite.Lookup(name); !ok {
				return normalized{}, fmt.Errorf("unknown benchmark %q", name)
			}
			if seen[name] {
				return normalized{}, fmt.Errorf("duplicate benchmark %q", name)
			}
			seen[name] = true
			n.benchmarks = append(n.benchmarks, name)
		}
	}
	sort.Strings(n.benchmarks)

	if n.sections, err = report.ParseSections(req.Sections); err != nil {
		return normalized{}, err
	}
	if req.Figure2TopN < 0 {
		return normalized{}, fmt.Errorf("figure2_top_n must be >= 0 (got %d)", req.Figure2TopN)
	}
	n.topN = req.Figure2TopN
	if n.topN == 0 {
		n.topN = 6
	}

	for _, name := range n.benchmarks {
		b, _ := s.cfg.Suite.Lookup(name)
		ws, err := b.Workloads()
		if err != nil {
			return normalized{}, fmt.Errorf("%s: %w", name, err)
		}
		for _, wl := range ws {
			if n.cfg.IncludeTest || wl.WorkloadKind() != core.KindTest {
				n.cells = append(n.cells, plannedCell{
					bench: b,
					name:  wl.WorkloadName(),
					w:     wl,
					key:   cellKey(name, wl.WorkloadName(), n.cfg),
				})
			}
		}
	}
	n.total = len(n.cells)
	return n, nil
}
