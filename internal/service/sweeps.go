package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/harness/report"
	"repro/internal/sweep"
)

// SweepRequest is the body of POST /v1/sweeps: a workload-space sweep —
// generate per_benchmark workloads per benchmark from seed, measure every
// cell, cluster, and select k representatives per benchmark. The response
// streams: one frame per completed cell, then one selection frame per
// benchmark, then the final report frame (internal/sweep's Report — the
// identical document cmd/albertasweep -json emits for the same plan).
//
// The stream is NDJSON by default; clients sending Accept:
// text/event-stream get the same frames as SSE events instead (the event
// name is the frame kind).
type SweepRequest struct {
	// Benchmarks to sweep (empty = every generator-capable benchmark).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// PerBenchmark workloads are generated per benchmark (default 16).
	PerBenchmark int `json:"per_benchmark,omitempty"`
	// Seed feeds the workload generators (core.Generator's contract).
	Seed int64 `json:"seed,omitempty"`
	// K representatives are kept per benchmark (default 3).
	K int `json:"k,omitempty"`
	// Features picks the clustering embedding: combined (default),
	// topdown or coverage.
	Features string `json:"features,omitempty"`
	// ClusterSeed perturbs the k-medoids initialization (0 = canonical).
	ClusterSeed int64 `json:"cluster_seed,omitempty"`
	// Window bounds in-flight cells (default the server's cell window,
	// shared with jobs: 2 × RunWorkers, plus RemoteFanout when the server
	// coordinates a worker fleet): the sweep holds at most Window
	// unreported measurements, however many cells the plan has.
	Window int `json:"window,omitempty"`
	// Config is the measurement configuration (reps, sampling) —
	// part of every cell's cache identity, exactly as in POST /v1/jobs.
	Config report.RunConfig `json:"config"`
}

// sweepCellEvent is one completed cell, emitted in completion order (the
// only nondeterministic part of the stream; everything reducible is
// deterministic and lives in the selection and report frames). Source
// records how the cell store satisfied the cell — repeated sweeps are
// answered from cache without re-measuring.
type sweepCellEvent struct {
	Kind      string `json:"kind"` // "cell"
	Index     int    `json:"index"`
	Total     int    `json:"total"`
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	Checksum  uint64 `json:"checksum"`
	Cycles    uint64 `json:"cycles"`
	Source    string `json:"source"` // cached | deduped | local | remote
}

// sweepSelectionEvent is one benchmark's reduction.
type sweepSelectionEvent struct {
	Kind string `json:"kind"` // "selection"
	sweep.BenchmarkSweep
}

// sweepReportEvent is the terminal frame of a successful sweep.
type sweepReportEvent struct {
	Kind   string        `json:"kind"` // "report"
	Report *sweep.Report `json:"report"`
}

// sweepErrorEvent is the terminal frame of a failed sweep. The HTTP
// status is already 200 by the time cells execute, so stream consumers
// must treat an error frame (or a stream ending without a report frame)
// as failure.
type sweepErrorEvent struct {
	Kind  string `json:"kind"` // "error"
	Error string `json:"error"`
}

func (o cellOutcome) String() string {
	switch o {
	case cellCached:
		return "cached"
	case cellDeduped:
		return "deduped"
	case cellLocal:
		return "local"
	case cellRemote:
		return "remote"
	}
	return "unknown"
}

// maxSweepCells bounds a sweep's plan (benchmarks × per_benchmark): the
// plan is generated up front, so an unbounded per_benchmark would let one
// request allocate without limit.
const maxSweepCells = 1 << 16

// handleSweep is POST /v1/sweeps. The sweep runs inside the request:
// harness.ForEach hands plan indices to Window workers, each resolving its
// cell through the cell store (cache, single-flight dedup, worker fleet)
// and streaming a frame per completion; the accumulator compacts each
// measurement to a behaviour point and releases it, so the handler holds
// O(Window) measurements regardless of plan size. Selection happens after
// the last cell, keyed by plan index — the representative sets are
// byte-identical to cmd/albertasweep's for the same request.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Features == "" {
		req.Features = "combined"
	}
	feats, err := cluster.ParseFeatures(req.Features)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	swcfg, err := sweep.Config{
		Benchmarks:   req.Benchmarks,
		PerBenchmark: req.PerBenchmark,
		Seed:         req.Seed,
		K:            req.K,
		Features:     feats,
		ClusterSeed:  req.ClusterSeed,
	}.Normalize(s.cfg.Suite)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if swcfg.PerBenchmark > maxSweepCells/len(swcfg.Benchmarks) {
		writeError(w, http.StatusBadRequest, "sweep of %d benchmarks × %d workloads exceeds %d cells",
			len(swcfg.Benchmarks), swcfg.PerBenchmark, maxSweepCells)
		return
	}
	opts, err := runOptions(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := opts.ReportConfig()
	units, err := sweep.Plan(s.cfg.Suite, swcfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Window < 0 {
		writeError(w, http.StatusBadRequest, "window must be >= 0 (got %d)", req.Window)
		return
	}
	window := req.Window
	if window == 0 {
		window = s.window
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}

	// Sweeps ride the request, not the job queue, but they must still
	// respect Drain: a draining server answers 503, and Drain waits for
	// in-flight sweeps alongside the job workers.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.sweepWG.Add(1)
	s.mu.Unlock()
	defer s.sweepWG.Done()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// emit writes one frame. Cell workers call it under mu (frames from
	// concurrent workers must not interleave).
	emit := func(kind string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		if err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	acc := sweep.NewAccumulator(swcfg)
	var mu sync.Mutex // serializes acc and frame emission across workers
	err = harness.ForEach(r.Context(), len(units), window, func(ctx context.Context, _, i int) error {
		u := units[i]
		c := plannedCell{
			bench: u.Benchmark,
			name:  u.Workload.WorkloadName(),
			w:     u.Workload,
			key:   cellKey(u.Benchmark.Name(), u.Workload.WorkloadName(), cfg),
		}
		m, out, err := s.cellMeasurement(ctx, c, cfg, true, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		acc.Add(i, m)
		return emit("cell", sweepCellEvent{
			Kind:      "cell",
			Index:     i,
			Total:     len(units),
			Benchmark: m.Benchmark,
			Workload:  m.Workload,
			Checksum:  m.Checksum,
			Cycles:    m.Cycles,
			Source:    out.String(),
		})
	})
	if err != nil {
		if r.Context().Err() == nil {
			emit("error", sweepErrorEvent{Kind: "error", Error: err.Error()})
		}
		return
	}
	rep, err := acc.Report(cfg)
	if err != nil {
		emit("error", sweepErrorEvent{Kind: "error", Error: err.Error()})
		return
	}
	for i := range rep.Benchmarks {
		if err := emit("selection", sweepSelectionEvent{Kind: "selection", BenchmarkSweep: rep.Benchmarks[i]}); err != nil {
			return
		}
	}
	emit("report", sweepReportEvent{Kind: "report", Report: rep})
}
