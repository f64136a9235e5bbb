package service

import (
	"context"
	"sync"

	"repro/internal/harness/report"
)

// Job lifecycle states. queued → running → done|failed|canceled; a queued
// job may also go straight to canceled (DELETE before a worker picks it
// up) or be born done (every cell cached at submit time).
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// JobRequest is the body of POST /v1/jobs. Zero values take the harness
// defaults: empty benchmarks = the whole suite, empty sections = all,
// zero reps from harness.Options.Normalize, figure2_top_n 0 = 6.
type JobRequest struct {
	Benchmarks  []string         `json:"benchmarks,omitempty"`
	Config      report.RunConfig `json:"config"`
	Sections    []string         `json:"sections,omitempty"`
	Figure2TopN int              `json:"figure2_top_n,omitempty"`
}

// CellBreakdown reports how a job's matrix cells were satisfied: read
// from the cache, deduplicated onto another job's in-flight execution,
// executed locally, or executed on a remote worker.
type CellBreakdown struct {
	Cached  int `json:"cached"`
	Deduped int `json:"deduped"`
	Local   int `json:"local"`
	Remote  int `json:"remote"`
}

// JobStatus is the job resource returned by the /v1/jobs handlers.
type JobStatus struct {
	SchemaVersion int              `json:"schema_version"`
	ID            string           `json:"id"`
	State         string           `json:"state"`
	Benchmarks    []string         `json:"benchmarks"`
	Sections      []string         `json:"sections"`
	Config        report.RunConfig `json:"config"`
	Figure2TopN   int              `json:"figure2_top_n"`
	// Cached reports whether every cell came from the cache without
	// executing or waiting on any benchmark.
	Cached bool `json:"cached"`
	// Cells breaks down completed cells by how they were satisfied.
	Cells     CellBreakdown `json:"cells"`
	Completed int           `json:"completed"`
	Total     int           `json:"total"`
	Error     string        `json:"error,omitempty"`
}

// Event is one SSE progress frame. Terminal frames (the `done` SSE event)
// carry the final state; progress frames are per cell — a start when this
// job's flight begins executing a cold cell, a done when the cell
// resolves (with cached=true when it was read from the cache) — so
// Completed is monotone non-decreasing and the last frame of a full run
// reports Completed == Total.
type Event struct {
	Kind      string `json:"kind"` // start | done | error | terminal
	Benchmark string `json:"benchmark,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	State     string `json:"state,omitempty"` // terminal frames only
	Error     string `json:"error,omitempty"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
}

// job is the server-side state of one characterization request.
type job struct {
	id  string
	req normalized

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string       //lint:guardedby mu
	cached    bool         //lint:guardedby mu
	counts    [4]int       //lint:guardedby mu — indexed by cellOutcome
	completed int          //lint:guardedby mu
	errMsg    string       //lint:guardedby mu
	result    []byte       //lint:guardedby mu
	events    []Event      //lint:guardedby mu — replay log for late SSE subscribers
	subs      []chan Event //lint:guardedby mu — live subscribers
	closed    bool         //lint:guardedby mu — terminal event published
}

func newJob(id string, nr normalized) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{id: id, req: nr, ctx: ctx, cancel: cancel, state: stateQueued}
}

// status snapshots the job resource.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		SchemaVersion: report.SchemaVersion,
		ID:            j.id,
		State:         j.state,
		Benchmarks:    j.req.benchmarks,
		Sections:      j.req.sections.Names(),
		Config:        j.req.cfg,
		Figure2TopN:   j.req.topN,
		Cached:        j.cached,
		Cells: CellBreakdown{
			Cached:  j.counts[cellCached],
			Deduped: j.counts[cellDeduped],
			Local:   j.counts[cellLocal],
			Remote:  j.counts[cellRemote],
		},
		Completed: j.completed,
		Total:     j.req.total,
		Error:     j.errMsg,
	}
}

func (j *job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// begin moves queued → running; false means the job was canceled while
// queued and must not run.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return false
	}
	j.state = stateRunning
	return true
}

// requestCancel cancels a queued or running job; false means the job was
// already terminal. A queued job is canceled immediately; a running one
// keeps state "running" until its cell resolutions observe the context
// and the worker marks it canceled.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	switch j.state {
	case stateQueued:
		j.state = stateCanceled
		j.cancel()
		j.publishTerminalLocked()
		j.mu.Unlock()
		return true
	case stateRunning:
		j.mu.Unlock()
		j.cancel()
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// cellStarted publishes a start event: this job's flight is about to
// execute a cold cell. Cells read from the cache or deduplicated onto
// another flight publish no start — only a done.
func (j *job) cellStarted(c plannedCell) {
	j.mu.Lock()
	j.publishLocked(Event{
		Kind:      "start",
		Benchmark: c.bench.Name(),
		Workload:  c.name,
		Completed: j.completed,
		Total:     j.req.total,
	})
	j.mu.Unlock()
}

// cellDone records one resolved cell and publishes its done event.
// Completed increments under the job lock, so it is monotone across
// concurrent cell resolutions.
func (j *job) cellDone(c plannedCell, out cellOutcome) {
	j.mu.Lock()
	j.completed++
	j.counts[out]++
	j.publishLocked(Event{
		Kind:      "done",
		Benchmark: c.bench.Name(),
		Workload:  c.name,
		Cached:    out == cellCached,
		Completed: j.completed,
		Total:     j.req.total,
	})
	j.mu.Unlock()
}

// cellFailed publishes an error event for the cell that failed the job.
// Cells aborted by the job's own cancellation stay silent — the terminal
// frame carries the canceled state.
func (j *job) cellFailed(c plannedCell, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ctx.Err() != nil {
		return
	}
	j.publishLocked(Event{
		Kind:      "error",
		Benchmark: c.bench.Name(),
		Workload:  c.name,
		Error:     err.Error(),
		Completed: j.completed,
		Total:     j.req.total,
	})
}

func (j *job) finish(result []byte) {
	j.mu.Lock()
	j.state = stateDone
	j.result = result
	j.cached = j.counts[cellCached] == j.req.total
	j.completed = j.req.total
	j.publishTerminalLocked()
	j.mu.Unlock()
}

// finishFromCache completes a job at birth: every cell was already
// resolved at submit time, the envelope was assembled synchronously, zero
// measurements executed. The terminal event is published immediately so
// SSE subscribers see an instant end of stream.
func (j *job) finishFromCache(result []byte) {
	j.mu.Lock()
	j.state = stateDone
	j.cached = true
	j.counts[cellCached] = j.req.total
	j.result = result
	j.completed = j.req.total
	j.publishTerminalLocked()
	j.mu.Unlock()
}

func (j *job) fail(err error) {
	j.mu.Lock()
	j.state = stateFailed
	j.errMsg = err.Error()
	j.publishTerminalLocked()
	j.mu.Unlock()
}

func (j *job) finishCanceled() {
	j.mu.Lock()
	j.state = stateCanceled
	j.publishTerminalLocked()
	j.mu.Unlock()
}

// publishLocked appends to the replay log and fans out to subscribers.
// Subscriber channels are sized for the whole event budget (see
// subscribe), so sends never block even if a client stalls.
func (j *job) publishLocked(e Event) {
	j.events = append(j.events, e)
	for _, ch := range j.subs {
		ch <- e //lint:allow blocking-send subscriber channels are sized for the whole event budget (subscribe); the send cannot block
	}
}

func (j *job) publishTerminalLocked() {
	j.publishLocked(Event{Kind: "terminal", State: j.state, Error: j.errMsg,
		Completed: j.completed, Total: j.req.total})
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.closed = true
}

// subscribe returns a channel replaying every past event and delivering
// every future one; the channel closes after the terminal event. The
// capacity covers the maximum event budget of a run — a start and a done
// event for each cell plus the job terminal — so the publisher never
// blocks on a slow consumer.
func (j *job) subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 2*j.req.total+4)
	for _, e := range j.events {
		ch <- e
	}
	if j.closed {
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	unsub := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
	return ch, unsub
}
