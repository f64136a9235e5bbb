package service

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/benchmarks/xalan"
	"repro/internal/core"
)

// BenchmarkCellExecuteHit times POST /v1/cells:execute on cached cells,
// one request through the handler per op, without a network. xalancbmk
// has the costliest names to resolve: its generated cell regenerates an
// XML document, and its inventory cell builds the whole inventory.
func BenchmarkCellExecuteHit(b *testing.B) {
	suite, err := core.NewSuite(xalan.New())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewServer(Config{Suite: suite, JobWorkers: 1, RunWorkers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	for _, c := range []struct{ name, workload string }{
		{"generated", "gen.s1.15"},
		{"inventory", "train"},
	} {
		body := fmt.Sprintf(`{"benchmark": "523.xalancbmk_r", "workload": %q, "config": {"reps": 1}}`, c.workload)
		if rec := postCell(s, body); rec.Code != http.StatusOK {
			b.Fatalf("warm %s: %d\n%s", c.workload, rec.Code, rec.Body.String())
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := postCell(s, body); rec.Code != http.StatusOK {
					b.Fatalf("hit %s: %d\n%s", c.workload, rec.Code, rec.Body.String())
				}
			}
		})
	}
}
