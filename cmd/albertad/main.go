// Command albertad is the characterization service: a long-running HTTP
// daemon that runs the benchmark × workload matrix on demand and serves
// the results through the versioned report.Suite envelope — the same
// schema_version 2 document `albertarun -json` emits.
//
//	albertad -addr :8080 -parallel 4 -jobs 1 -queue 16
//	albertad -addr :8081 -worker                      # worker daemon
//	albertad -addr :8080 -workers http://h1:8081,http://h2:8081
//
// API (all JSON unless noted):
//
//	POST   /v1/jobs               submit a characterization request
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/jobs/{id}/result   the report.Suite envelope (409 until done)
//	GET    /v1/jobs/{id}/events   SSE progress stream
//	GET    /v1/benchmarks         benchmark and workload inventory
//	POST   /v1/cells:execute      run one matrix cell (worker protocol)
//	GET    /v1/cache              cell-cache introspection
//	DELETE /v1/cache              flush resolved cells
//	GET    /metrics               job/cell/allocation counters
//	GET    /healthz               liveness (reports draining)
//
// Results are cached per cell — one (benchmark × workload × normalized
// config) point of the matrix — with single-flight deduplication, so
// overlapping requests share executions and a repeat request re-runs
// nothing. With -workers the daemon coordinates: cold cells are sharded
// across the listed worker daemons (started with -worker) and merged into
// an envelope byte-identical to a single-node run. SIGTERM/SIGINT
// triggers a graceful drain: new submissions answer 503 while queued and
// in-flight jobs run to completion, then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/service"
)

// Connection bounds for untrusted clients. There is no write timeout:
// job event streams and sweeps answer for as long as their cells run.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout bounds how long a keep-alive connection may sit idle
	// between requests.
	idleTimeout = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		parallel = flag.Int("parallel", 1, "concurrent local cell executions (server-wide)")
		jobs     = flag.Int("jobs", 1, "jobs run concurrently")
		queue    = flag.Int("queue", 16, "queued-job bound (full queue answers 503)")
		workers  = flag.String("workers", "", "comma-separated worker base URLs; enables coordinator sharding")
		worker   = flag.Bool("worker", false, "serve only the worker surface (cells:execute, cache, metrics)")
		fanout   = flag.Int("fanout", 0, "concurrent remote cell executions (default 2 per worker)")
	)
	flag.Parse()
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if err := run(*addr, *parallel, *jobs, *queue, *fanout, urls, *worker); err != nil {
		fmt.Fprintln(os.Stderr, "albertad:", err)
		os.Exit(1)
	}
}

func run(addr string, parallel, jobs, queue, fanout int, workers []string, workerOnly bool) error {
	if workerOnly && len(workers) > 0 {
		return errors.New("-worker and -workers are mutually exclusive (workers never forward)")
	}
	suite, err := benchmarks.CharacterizedSuite()
	if err != nil {
		return err
	}
	srv, err := service.NewServer(service.Config{
		Suite:        suite,
		JobWorkers:   jobs,
		RunWorkers:   parallel,
		QueueDepth:   queue,
		Workers:      workers,
		RemoteFanout: fanout,
		WorkerOnly:   workerOnly,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		mode := "serving"
		switch {
		case workerOnly:
			mode = "worker, serving"
		case len(workers) > 0:
			mode = fmt.Sprintf("coordinating %d workers, serving", len(workers))
		}
		fmt.Fprintf(os.Stderr, "albertad: %s on %s\n", mode, addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	// Graceful drain: finish queued and running jobs, then close the
	// listener (SSE streams end when their jobs reach terminal states).
	fmt.Fprintln(os.Stderr, "albertad: draining")
	srv.Drain()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "albertad: drained, exiting")
	return nil
}
