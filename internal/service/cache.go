package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/harness/report"
)

// cellKey derives the identity of one cell — a (benchmark × workload ×
// normalized measurement config) point of the characterization matrix.
// Two cells share a key exactly when the report.Measurement they would
// produce is byte-identical (up to WallSeconds, which the cache
// deliberately freezes at first-run values), so the key covers everything
// that feeds a measurement and nothing that doesn't:
//
//   - the envelope schema version (a bump must invalidate old entries),
//   - the build identity (module version/sum and Go version from the
//     embedded build info — a rebuilt binary may model differently),
//   - the benchmark and workload names,
//   - the normalized measurement-affecting config (reps and the sampling
//     knobs).
//
// Presentation knobs — the section selection and the Figure 2 top-N fold —
// and matrix-selection knobs — include_test, the benchmark list — are
// absent on purpose: they choose which cells a job comprises and how the
// envelope presents them, but never change a cell's measurement. That is
// the measurement/presentation split: a job differing only in sections or
// top-N resolves every cell from the cache and executes nothing.
func cellKey(benchmark, workload string, cfg report.RunConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\n", report.SchemaVersion)
	if bi, ok := debug.ReadBuildInfo(); ok {
		fmt.Fprintf(h, "go=%s module=%s@%s sum=%s\n",
			bi.GoVersion, bi.Main.Path, bi.Main.Version, bi.Main.Sum)
	}
	fmt.Fprintf(h, "benchmark=%s workload=%s\n", benchmark, workload)
	fmt.Fprintf(h, "reps=%d\n", cfg.Reps)
	// Sampled measurements extrapolate probe counters, so a sampled cell
	// and its exact twin must never alias; the interval and phase knobs
	// change the plan and with it every extrapolated field.
	fmt.Fprintf(h, "sampled=%t interval=%d phases=%d\n", cfg.Sampled, cfg.SampledInterval, cfg.SampledPhases)
	return hex.EncodeToString(h.Sum(nil))
}

// cellState is the lifecycle of a cellEntry: inflight (one leader is
// executing, everyone else waits on done) → resolved (m is final and
// immutable). Abandoned entries — the leader failed or was canceled — are
// removed from the store; their waiters wake through done and re-acquire.
type cellState int

const (
	cellInflight cellState = iota
	cellResolved
)

// cellEntry is one cell of the store. Fields are written under the store
// mutex before done is closed and never after, so waiters may read m and
// err lock-free once done is closed.
type cellEntry struct {
	benchmark string
	done      chan struct{}
	state     cellState
	m         report.Measurement
	err       error // abandonment cause (leader failure or cancellation)
	size      int   // canonical JSON size of m, for byte accounting
}

// wait blocks until the entry resolves or is abandoned, or ctx ends.
func (e *cellEntry) wait(ctx context.Context) error {
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquireResult classifies an acquire call.
type acquireResult int

const (
	// acqLeader: the caller created the entry and must execute the cell,
	// then resolve or abandon it.
	acqLeader acquireResult = iota
	// acqResolved: the cell is cached; the entry's measurement is final.
	acqResolved
	// acqInflight: another flight owns the cell; wait on entry.done.
	acqInflight
)

// cellStore is the cell-granular result cache with single-flight
// semantics: concurrent requests for the same cell block on one execution
// and all receive the identical measurement. Resolved entries are
// immutable and survive until flushed, so a repeat job re-reads the exact
// bytes-producing values (including WallSeconds) of the first run.
type cellStore struct {
	mu      sync.Mutex
	entries map[string]*cellEntry //lint:guardedby mu
	bytes   int                   //lint:guardedby mu

	hits            uint64 //lint:guardedby mu — acquire found a resolved entry
	misses          uint64 //lint:guardedby mu — acquire created the entry (caller leads)
	inflightWaits   uint64 //lint:guardedby mu — acquire joined another flight
	localRuns       uint64 //lint:guardedby mu — cells resolved by local execution
	remoteRuns      uint64 //lint:guardedby mu — cells resolved by a worker daemon
	remoteErrors    uint64 //lint:guardedby mu — failed remote attempts (before retry/failover)
	remoteFailovers uint64 //lint:guardedby mu — cells that fell back to local execution
	flushes         uint64 //lint:guardedby mu — DELETE /v1/cache calls

	// remoteErrLog retains the most recent remote failure details (cell
	// key, benchmark/workload, attempt, worker error) for /metrics.
	remoteErrLog []string //lint:guardedby mu
}

func newCellStore() *cellStore {
	return &cellStore{entries: map[string]*cellEntry{}}
}

// acquire looks the cell up, counting a hit, a wait, or — when the caller
// becomes the leader — a miss.
func (c *cellStore) acquire(key, benchmark string) (*cellEntry, acquireResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.state == cellResolved {
			c.hits++
			return e, acqResolved
		}
		c.inflightWaits++
		return e, acqInflight
	}
	c.misses++
	e := &cellEntry{benchmark: benchmark, done: make(chan struct{})}
	c.entries[key] = e
	return e, acqLeader
}

// resolve finalizes a leader's entry with its measurement and wakes all
// waiters. The entry may have been flushed from the map while inflight; it
// still resolves for its waiters, it just isn't re-inserted.
func (c *cellStore) resolve(key string, e *cellEntry, m report.Measurement, out cellOutcome) {
	size := 0
	if data, err := json.Marshal(m); err == nil {
		size = len(data)
	}
	c.mu.Lock()
	e.m = m
	e.size = size
	e.state = cellResolved
	if c.entries[key] == e {
		c.bytes += size
	}
	switch out {
	case cellRemote:
		c.remoteRuns++
	default:
		c.localRuns++
	}
	close(e.done)
	c.mu.Unlock()
}

// abandon removes a leader's failed entry so a later flight can retry the
// cell, and wakes waiters with the cause. Waiters distinguish the leader's
// cancellation (re-acquire and take over) from a genuine measurement
// failure (propagate).
func (c *cellStore) abandon(key string, e *cellEntry, err error) {
	c.mu.Lock()
	e.err = err
	if c.entries[key] == e {
		delete(c.entries, key)
	}
	close(e.done)
	c.mu.Unlock()
}

// allResolved returns the measurements for keys if — and only if — every
// one of them is already resolved; countHits then credits one hit per
// cell. It backs the submit-time born-done path: a job whose whole plan is
// cached is answered synchronously without touching the queue.
func (c *cellStore) allResolved(keys []string, countHits bool) ([]report.Measurement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := make([]report.Measurement, len(keys))
	for i, k := range keys {
		e, ok := c.entries[k]
		if !ok || e.state != cellResolved {
			return nil, false
		}
		ms[i] = e.m
	}
	if countHits {
		c.hits += uint64(len(keys))
	}
	return ms, true
}

// remoteErrLogCap bounds the /metrics remote-error detail ring.
const remoteErrLogCap = 16

// noteRemoteError counts one failed remote attempt and retains its
// detail (cell key, benchmark/workload, attempt number, worker error) in
// a bounded ring surfaced by /metrics.
func (c *cellStore) noteRemoteError(detail string) {
	c.mu.Lock()
	c.remoteErrors++
	if len(c.remoteErrLog) == remoteErrLogCap {
		copy(c.remoteErrLog, c.remoteErrLog[1:])
		c.remoteErrLog[len(c.remoteErrLog)-1] = detail
	} else {
		c.remoteErrLog = append(c.remoteErrLog, detail)
	}
	c.mu.Unlock()
}

func (c *cellStore) noteFailover() {
	c.mu.Lock()
	c.remoteFailovers++
	c.mu.Unlock()
}

// flush drops every resolved entry (inflight cells keep their waiters) and
// returns how many were dropped.
func (c *cellStore) flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if e.state == cellResolved {
			delete(c.entries, k)
			c.bytes -= e.size
			n++
		}
	}
	c.flushes++
	return n
}

// CellCacheStats snapshots the store for /metrics and GET /v1/cache.
type CellCacheStats struct {
	// Cells is the number of resolved (cached) cells; Inflight counts
	// cells currently executing somewhere.
	Cells    int `json:"cells"`
	Inflight int `json:"inflight"`
	// Bytes is the canonical JSON size of every cached measurement.
	Bytes int `json:"bytes"`

	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	InflightWaits uint64 `json:"inflight_waits"`
	// HitRatio is Hits / (Hits + Misses); 0 before any lookup.
	HitRatio float64 `json:"hit_ratio"`

	LocalRuns       uint64 `json:"local_runs"`
	RemoteRuns      uint64 `json:"remote_runs"`
	RemoteErrors    uint64 `json:"remote_errors"`
	RemoteFailovers uint64 `json:"remote_failovers"`
	Flushes         uint64 `json:"flushes"`

	// RemoteErrorLog is the detail behind RemoteErrors: the most recent
	// failed attempts, each carrying the cell key, benchmark/workload,
	// attempt number, and the worker's error.
	RemoteErrorLog []string `json:"remote_error_log,omitempty"`
}

func (c *cellStore) stats() CellCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CellCacheStats{
		Bytes:           c.bytes,
		Hits:            c.hits,
		Misses:          c.misses,
		InflightWaits:   c.inflightWaits,
		LocalRuns:       c.localRuns,
		RemoteRuns:      c.remoteRuns,
		RemoteErrors:    c.remoteErrors,
		RemoteFailovers: c.remoteFailovers,
		Flushes:         c.flushes,
		RemoteErrorLog:  append([]string(nil), c.remoteErrLog...),
	}
	for _, e := range c.entries {
		if e.state == cellResolved {
			st.Cells++
		} else {
			st.Inflight++
		}
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}

// BenchmarkCacheStats is one row of the GET /v1/cache per-benchmark
// breakdown.
type BenchmarkCacheStats struct {
	Benchmark string `json:"benchmark"`
	Cells     int    `json:"cells"`
	Bytes     int    `json:"bytes"`
}

// breakdown reports the resolved cells per benchmark, sorted by name.
func (c *cellStore) breakdown() []BenchmarkCacheStats {
	c.mu.Lock()
	cells := map[string]int{}
	bytes := map[string]int{}
	for _, e := range c.entries {
		if e.state == cellResolved {
			cells[e.benchmark]++
			bytes[e.benchmark] += e.size
		}
	}
	c.mu.Unlock()
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]BenchmarkCacheStats, 0, len(names))
	for _, name := range names {
		out = append(out, BenchmarkCacheStats{Benchmark: name, Cells: cells[name], Bytes: bytes[name]})
	}
	return out
}
