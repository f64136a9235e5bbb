package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer.
type Span struct {
	ID int `json:"id"`
	// Parent is the id of the span that caused this one; 0 for a root.
	Parent int `json:"parent"`
	// Cell identifies the cell (benchmark × workload) the span worked on.
	// Every span of one cell shares it, in the production path and in the
	// layer probe alike; 0 means the span belongs to no single cell.
	Cell  int    `json:"cell"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the recorder was created
	End   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use. A nil *Recorder records nothing, so the measured path
// runs the same code with tracing off.
type Recorder struct {
	now func() int64 // nanoseconds since the recorder was created

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	t0 := time.Now()
	return &Recorder{now: func() int64 { return time.Since(t0).Nanoseconds() }}
}

// Start opens a span and returns its id.
func (r *Recorder) Start(name string, parent, cell int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Cell: cell, Name: name, Start: t, End: t})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
}

// Spans returns a copy of every span recorded so far, in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its direct children cover. Overlapping
// children (concurrent requests under one round) count their union once,
// and a child that outlives its parent counts only inside the parent.
func (r *Recorder) SelfTimes() map[string]time.Duration {
	spans := r.Spans()
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredLength(children[s.ID], s.Start, s.End)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// coveredLength is the length of the union of the spans' intervals,
// clipped to [lo, hi].
func coveredLength(spans []Span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// WriteJSON writes every span as {"spans": [...]}.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
}
