package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the output must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, want 1 to 128", n)
	}
	return spec
}

// TestSmokeWorkloads runs every workload in its -smoke form, untraced and
// traced, and checks that the printed metrics are exactly the ones
// BENCHMARK.json lists, with valid names, their units and sample counts.
func TestSmokeWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke", "--golden", "golden"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				checkOutput(t, stdout.String(), want)
			})
		}
	}
}

func checkOutput(t *testing.T, out string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result has no %q key", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want 4", len(keys))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not valid", m.Name)
		}
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s was not printed", m.Name)
			continue
		}
		if got.Unit == "" || got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if !printedWithCount(lines, m.Name, m.Unit) {
			t.Errorf("metric %s has no line with its unit and sample count", m.Name)
		}
	}
}

func printedWithCount(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == name && f[2] == unit && strings.HasPrefix(f[3], "n=") {
			return true
		}
	}
	return false
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "suite", "--trace", "2"},
		{"--workload", "suite", "--spans", "x.json"},
		{"--workload", "suite", "--seconds", "-1"},
		{"--workload", "suite", "--smoke", "--update-golden"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%q) accepted bad input", args)
		}
	}
}
