package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// fakeRecorder returns a recorder whose clock reads *now.
func fakeRecorder(now *int64) *Recorder {
	return &Recorder{now: func() int64 { return *now }}
}

// span opens a span at start and closes it at end on a fake clock.
func span(r *Recorder, now *int64, name string, parent, cell int, start, end int64) int {
	*now = start
	id := r.Start(name, parent, cell)
	*now = end
	r.End(id)
	return id
}

func TestSelfTimes(t *testing.T) {
	var now int64
	r := fakeRecorder(&now)
	// root   [0, 100]
	//   a    [10, 40]   overlaps b
	//     g  [15, 25]   covers part of a only
	//   b    [30, 60]
	//   c    [90, 120]  outlives root: only [90, 100] covers it
	root := span(r, &now, "root", 0, 0, 0, 100)
	a := span(r, &now, "a", root, 1, 10, 40)
	span(r, &now, "g", a, 1, 15, 25)
	span(r, &now, "b", root, 2, 30, 60)
	span(r, &now, "c", root, 3, 90, 120)

	want := map[string]time.Duration{
		"root": 100 - (50 + 10), // children cover [10, 60] and [90, 100]
		"a":    30 - 10,
		"g":    10,
		"b":    30,
		"c":    30,
	}
	if got := r.SelfTimes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestSelfTimesSumSpansOfOneName(t *testing.T) {
	var now int64
	r := fakeRecorder(&now)
	root := span(r, &now, "round", 0, 0, 0, 50)
	span(r, &now, "request", root, 1, 0, 20)
	span(r, &now, "request", root, 1, 10, 30) // concurrent with the first
	span(r, &now, "request", root, 2, 40, 45)
	got := r.SelfTimes()
	if got["request"] != 45 {
		t.Errorf("request self time = %d, want 45", got["request"])
	}
	if got["round"] != 50-35 {
		t.Errorf("round self time = %d, want 15", got["round"])
	}
}

func TestCellIDsAreShared(t *testing.T) {
	ids := newCellIDs()
	a := ids.get(cellKey("505.mcf_r", "train"))
	b := ids.get(cellKey("505.mcf_r", "refrate"))
	if a == b || a == 0 || b == 0 {
		t.Fatalf("distinct cells got ids %d and %d", a, b)
	}
	if again := ids.get(cellKey("505.mcf_r", "train")); again != a {
		t.Fatalf("same cell got ids %d and %d", a, again)
	}

	var now int64
	r := fakeRecorder(&now)
	prod := span(r, &now, "harness.cell", 0, a, 0, 10)
	probe := span(r, &now, "probe.cell", 0, a, 20, 30)
	span(r, &now, "perf.exact", probe, a, 21, 29)
	for _, s := range r.Spans() {
		if s.Cell != a {
			t.Errorf("span %d (%s) has cell %d, want %d", s.ID, s.Name, s.Cell, a)
		}
	}
	if prod == probe {
		t.Fatal("spans share an id")
	}
}

func TestWriteJSON(t *testing.T) {
	var now int64
	r := fakeRecorder(&now)
	root := span(r, &now, "round", 0, 0, 5, 50)
	span(r, &now, "harness.cell", root, 7, 6, 40)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("decoding %s: %v", buf.Bytes(), err)
	}
	want := []Span{
		{ID: 1, Parent: 0, Cell: 0, Name: "round", Start: 5, End: 50},
		{ID: 2, Parent: 1, Cell: 7, Name: "harness.cell", Start: 6, End: 40},
	}
	if !reflect.DeepEqual(got.Spans, want) {
		t.Fatalf("spans = %+v, want %+v", got.Spans, want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	if id := r.Start("x", 0, 0); id != 0 {
		t.Fatalf("Start on nil recorder = %d", id)
	}
	r.End(0)
	if n := len(r.SelfTimes()); n != 0 {
		t.Fatalf("nil recorder has %d self times", n)
	}
	if d := timed(r, "x", 0, 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Fatalf("timed without a recorder measured %v", d)
	}
}
