package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/harness/report"
)

// cellOutcome classifies how one cell of a job was satisfied.
type cellOutcome int

const (
	// cellCached: the cell was already resolved in the store.
	cellCached cellOutcome = iota
	// cellDeduped: another flight was executing the cell; this caller
	// waited and shared its measurement.
	cellDeduped
	// cellLocal: this caller led the flight and executed locally.
	cellLocal
	// cellRemote: this caller led the flight and a worker daemon executed.
	cellRemote
)

// cellMeasurement resolves one cell with single-flight semantics: the
// first caller to reach a cold cell becomes the leader and executes it
// (remotely when workers are configured and allowRemote is set, locally
// otherwise); every concurrent caller blocks on that one execution and
// receives the identical measurement. A genuine execution failure is
// propagated to all waiters and the entry is dropped so a later request
// can retry; a leader canceled mid-flight (its client gave up) also drops
// the entry, but waiters then loop and re-acquire — one of them becomes
// the new leader, so one canceled job never poisons another's cells.
//
// onStart, when non-nil, fires once if this caller becomes the leader,
// just before execution begins — the hook jobs use to publish their
// per-cell start events (cached and deduped cells publish no start).
func (s *Server) cellMeasurement(ctx context.Context, c plannedCell, cfg report.RunConfig, allowRemote bool, onStart func()) (report.Measurement, cellOutcome, error) {
	waited := false
	for {
		e, acq := s.cells.acquire(c.key, c.bench.Name())
		switch acq {
		case acqResolved:
			out := cellCached
			if waited {
				out = cellDeduped
			}
			return e.m, out, nil
		case acqInflight:
			waited = true
			if err := e.wait(ctx); err != nil {
				return report.Measurement{}, 0, err
			}
			if e.err == nil {
				return e.m, cellDeduped, nil
			}
			if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
				// The leader's context ended, not the cell itself: take
				// over by re-acquiring (the abandoned entry is gone).
				continue
			}
			return report.Measurement{}, 0, e.err
		default: // acqLeader
			if onStart != nil {
				onStart()
			}
			m, out, err := s.executeCell(ctx, c, cfg, allowRemote)
			if err != nil {
				s.cells.abandon(c.key, e, err)
				return report.Measurement{}, 0, err
			}
			s.cells.resolve(c.key, e, m, out)
			s.accountCell(m)
			return m, out, nil
		}
	}
}

// executeCell runs one cold cell as its flight leader: try the sharded
// worker fleet first (when configured), fall back to bounded local
// execution. Local runs take a slot of localSem, the server-wide bound on
// concurrent measurements (cmd/albertad's -parallel).
//
// A cell planned without its workload is resolved here, by name, and
// nowhere else: only a leader about to run the cell locally pays for
// regenerating or looking up its input. A name that does not resolve
// fails the flight with a workloadError.
func (s *Server) executeCell(ctx context.Context, c plannedCell, cfg report.RunConfig, allowRemote bool) (report.Measurement, cellOutcome, error) {
	if allowRemote && len(s.cfg.Workers) > 0 {
		if m, ok := s.remoteCell(ctx, c, cfg); ok {
			return m, cellRemote, nil
		}
		if err := ctx.Err(); err != nil {
			return report.Measurement{}, 0, err
		}
		s.cells.noteFailover()
	}
	wl := c.w
	if wl == nil {
		var err error
		if wl, err = core.ResolveWorkload(c.bench, c.name); err != nil {
			return report.Measurement{}, 0, workloadError{err}
		}
	}
	select {
	case s.localSem <- struct{}{}:
	case <-ctx.Done():
		return report.Measurement{}, 0, ctx.Err()
	}
	defer func() { <-s.localSem }()
	opts, err := runOptions(cfg)
	if err != nil {
		return report.Measurement{}, 0, err
	}
	m, err := harness.RunWorkload(ctx, c.bench, wl, opts)
	if err != nil {
		return report.Measurement{}, 0, err
	}
	return m, cellLocal, nil
}

// workloadError is a cell whose workload name did not resolve. The
// request named no workload of the benchmark, so /v1/cells:execute
// answers it 400 rather than as a failed execution.
type workloadError struct{ err error }

func (e workloadError) Error() string { return e.err.Error() }
func (e workloadError) Unwrap() error { return e.err }

// remoteCell tries to execute the cell on the worker fleet. The home
// worker is chosen by a stable hash of the cell key, so the same cell
// always lands on the same worker and its cell cache concentrates hits;
// on failure one more worker is tried before giving up (the caller then
// fails over to local execution). Concurrent remote calls are bounded by
// remoteSem (Config.RemoteFanout).
func (s *Server) remoteCell(ctx context.Context, c plannedCell, cfg report.RunConfig) (report.Measurement, bool) {
	select {
	case s.remoteSem <- struct{}{}:
	case <-ctx.Done():
		return report.Measurement{}, false
	}
	defer func() { <-s.remoteSem }()
	n := len(s.cfg.Workers)
	attempts := 2
	if attempts > n {
		attempts = n
	}
	home := shardIndex(c.key, n)
	for a := 0; a < attempts; a++ {
		if ctx.Err() != nil {
			return report.Measurement{}, false
		}
		base := s.cfg.Workers[(home+a)%n]
		m, err := s.executeOnWorker(ctx, base, c, cfg)
		if err == nil {
			return m, true
		}
		s.cells.noteRemoteError(fmt.Sprintf("cell %.12s %s/%s attempt %d/%d: %v",
			c.key, c.bench.Name(), c.name, a+1, attempts, err))
	}
	return report.Measurement{}, false
}

// shardIndex maps a cell key onto one of n workers, stably.
func shardIndex(key string, n int) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32() % uint32(n))
}

// cellExecuteRequest is the body of POST /v1/cells:execute — the
// coordinator→worker wire format. Config rides the same report.RunConfig
// the public API uses; the worker re-normalizes and re-derives the cell
// key itself, so coordinator and worker cannot disagree on identity.
type cellExecuteRequest struct {
	Benchmark string           `json:"benchmark"`
	Workload  string           `json:"workload"`
	Config    report.RunConfig `json:"config"`
}

// cellExecuteResponse is the worker's answer: the measurement, verbatim.
// report.Measurement survives a JSON round trip bit-exactly (float64
// encodes shortest-round-trip, uint64 decodes from literal digits), which
// is what makes the coordinator's merged envelope byte-identical to a
// single-node run.
type cellExecuteResponse struct {
	SchemaVersion int                `json:"schema_version"`
	Measurement   report.Measurement `json:"measurement"`
}

// executeOnWorker runs one cell on one worker daemon.
func (s *Server) executeOnWorker(ctx context.Context, base string, c plannedCell, cfg report.RunConfig) (report.Measurement, error) {
	body, err := json.Marshal(cellExecuteRequest{
		Benchmark: c.bench.Name(),
		Workload:  c.name,
		Config:    cfg,
	})
	if err != nil {
		return report.Measurement{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cells:execute", bytes.NewReader(body))
	if err != nil {
		return report.Measurement{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return report.Measurement{}, fmt.Errorf("worker %s: %w", base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		return report.Measurement{}, fmt.Errorf("worker %s: reading response: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return report.Measurement{}, fmt.Errorf("worker %s: status %d: %s", base, resp.StatusCode, msg)
	}
	var out cellExecuteResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return report.Measurement{}, fmt.Errorf("worker %s: decoding response: %w", base, err)
	}
	if out.SchemaVersion != report.SchemaVersion {
		return report.Measurement{}, fmt.Errorf("worker %s: schema_version %d, want %d", base, out.SchemaVersion, report.SchemaVersion)
	}
	if out.Measurement.Benchmark != c.bench.Name() || out.Measurement.Workload != c.name {
		return report.Measurement{}, fmt.Errorf("worker %s: returned measurement for %s/%s, want %s/%s",
			base, out.Measurement.Benchmark, out.Measurement.Workload, c.bench.Name(), c.name)
	}
	return out.Measurement, nil
}

// handleCellExecute is POST /v1/cells:execute — the worker side of the
// coordinator protocol. The cell is resolved through this server's own
// cell store, so a worker single-flights and caches exactly like a
// coordinator; allowRemote is false, so workers never forward (a
// misconfigured worker ring cannot loop a cell forever).
//
// A hit is decided by names alone: the key is built from the request's
// benchmark, workload name and normalized config, with nothing generated
// or looked up first. An entry resolves only after its leader resolved
// and ran the same name, and resolution is deterministic, so a hit proves
// the name valid. On a miss the leader resolves the name (executeCell);
// that is how a worker regenerates a sweep's generated workloads, which
// are in no inventory, from the provenance in their names. A name that
// does not resolve answers 400 to the leader and to every request that
// waited on its flight.
func (s *Server) handleCellExecute(w http.ResponseWriter, r *http.Request) {
	var req cellExecuteRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	b, ok := s.cfg.Suite.Lookup(req.Benchmark)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown benchmark %q", req.Benchmark)
		return
	}
	if _, _, gen := core.ParseGeneratedName(req.Workload); gen {
		if _, ok := b.(core.Generator); !ok {
			// The message resolving the name would fail with.
			writeError(w, http.StatusBadRequest, "%v: %s/%s (benchmark cannot generate workloads)", core.ErrNoWorkload, b.Name(), req.Workload)
			return
		}
	}
	opts, err := runOptions(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := opts.ReportConfig()
	c := plannedCell{bench: b, name: req.Workload, key: cellKey(b.Name(), req.Workload, cfg)}
	m, _, err := s.cellMeasurement(r.Context(), c, cfg, false, nil)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing useful to write
		}
		code := http.StatusInternalServerError
		if errors.As(err, new(workloadError)) {
			code = http.StatusBadRequest
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, cellExecuteResponse{SchemaVersion: report.SchemaVersion, Measurement: m})
}

// accountCell folds one executed cell into the per-benchmark wall-time
// metrics. Cached and deduped cells are not re-counted: the metric is
// measured cost, not serving volume.
func (s *Server) accountCell(m report.Measurement) {
	s.statsMu.Lock()
	s.benchWall[m.Benchmark] += m.WallSeconds
	s.benchCells[m.Benchmark]++
	s.statsMu.Unlock()
}
