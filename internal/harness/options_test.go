package harness

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestNormalizeDefaults(t *testing.T) {
	got, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if got.Reps != def.Reps || got.Workers != def.Workers {
		t.Errorf("normalized zero Options = %+v, want DefaultOptions %+v", got, def)
	}
	// Explicit values pass through untouched.
	o := Options{Reps: 5, Workers: 7, IncludeTest: true, FailFast: true}
	got, err = o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Reps != 5 || got.Workers != 7 || !got.IncludeTest || !got.FailFast {
		t.Errorf("explicit options mangled: %+v", got)
	}
	// Negative workers collapse to the GOMAXPROCS sentinel.
	got, err = Options{Workers: -3}.Normalize()
	if err != nil || got.Workers != 0 {
		t.Errorf("workers = %d, err = %v", got.Workers, err)
	}
}

func TestNormalizeRejectsNegatives(t *testing.T) {
	if _, err := (Options{Reps: -1}).Normalize(); err == nil {
		t.Error("negative reps accepted")
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	b := &quickBench{name: "900.quick_r"}
	w, err := core.FindWorkload(b, "refrate")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(context.Background(), b, w, Options{Reps: -1}); err == nil {
		t.Error("RunWorkload accepted negative reps")
	}
	s, err := core.NewSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(s, Options{Reps: -1}).Run(context.Background()); err == nil {
		t.Error("Runner.Run accepted negative reps")
	}
}

func TestReportConfig(t *testing.T) {
	o, err := Options{Reps: 2, IncludeTest: true, Workers: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	rc := o.ReportConfig()
	if rc.Reps != 2 || !rc.IncludeTest {
		t.Errorf("ReportConfig = %+v", rc)
	}
}
