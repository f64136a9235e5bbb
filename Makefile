GO ?= go

.PHONY: build vet fmt lint lint-sarif leak-race test race fuzz-short bench bench-check bench-budget bench-smoke diff-full diff-sampled serve-smoke sweep-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: lists every file gofmt would rewrite and fails if there
# is one.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Determinism & harness-invariant static analysis (see DESIGN.md §14).
# Exit 1 covers findings from both rule families AND stale //lint:allow
# suppressions, so `make lint` is also the zero-stale-suppressions gate.
lint:
	$(GO) run ./cmd/albertalint ./...

# Same analysis as a SARIF 2.1.0 document (CI uploads it as an artifact).
lint-sarif:
	$(GO) run ./cmd/albertalint -format sarif ./... > albertalint.sarif

# Race + goroutine-leak gate for the concurrent packages: their TestMain
# runs under internal/leakcheck, so any goroutine surviving the package
# run fails it even when every test passes. internal/harness holds
# ForEach, the one bounded fan-out the other two run their cells on.
leak-race:
	$(GO) test -race -count=1 ./internal/service/... ./internal/cluster/... ./internal/harness/...

test:
	$(GO) test ./...

# The harness worker pool is race-checked on every run.
race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing for each of the eleven Fuzz targets
# (go test fuzzes one target per invocation): perlbench's
# FuzzExprDifferential and FuzzRegexCompiledDifferential, xalan's
# FuzzMatchPatternDifferential, the service's FuzzJobRequest and
# FuzzSweepRequest, FuzzResolveWorkload over the real suite's provenance
# names, FuzzGenerateWorkload over every generator's (seed, index) domain,
# leela's FuzzBoardChains against a flood-fill oracle, uarch's
# FuzzCacheMatchesReference against the reference cache, perf's
# FuzzEventsMatchReference against the reference event path attached in
# lockstep, and report's FuzzReportDecode over envelope bytes.
# Plain `go test` runs only their seed corpora. Go minimizes each input that
# widens coverage for up to 60 s by default, which would spend a target's
# whole budget on minimization wherever one execution takes milliseconds;
# -fuzzminimizetime caps it at one second per input, so the budget goes to
# fuzzing.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 1s

fuzz-short:
	$(FUZZ) -fuzz '^FuzzExprDifferential$$' ./internal/benchmarks/perlbench/
	$(FUZZ) -fuzz '^FuzzRegexCompiledDifferential$$' ./internal/benchmarks/perlbench/
	$(FUZZ) -fuzz '^FuzzMatchPatternDifferential$$' ./internal/benchmarks/xalan/
	$(FUZZ) -fuzz '^FuzzJobRequest$$' ./internal/service/
	$(FUZZ) -fuzz '^FuzzSweepRequest$$' ./internal/service/
	$(FUZZ) -fuzz '^FuzzResolveWorkload$$' ./internal/benchmarks/
	$(FUZZ) -fuzz '^FuzzGenerateWorkload$$' ./internal/benchmarks/
	$(FUZZ) -fuzz '^FuzzBoardChains$$' ./internal/benchmarks/leela/
	$(FUZZ) -fuzz '^FuzzCacheMatchesReference$$' ./internal/uarch/
	$(FUZZ) -fuzz '^FuzzEventsMatchReference$$' ./internal/perf/
	$(FUZZ) -fuzz '^FuzzReportDecode$$' ./internal/harness/report/

# Regenerate the tracked benchmark baseline: event-path microbenchmarks
# plus the full-suite wall clock. Slow — it characterizes the whole suite
# several times.
bench:
	$(GO) run ./cmd/albertabench -out BENCH_profiler.json

# Warn-only drift check of the committed baseline: re-times the event-path
# microbenchmarks and flags anything outside the tolerance band. Never fails
# on timing (CI runners are too noisy for a hard gate); structural drift —
# a micro missing from the baseline — is a real error.
bench-check:
	$(GO) run ./cmd/albertabench -check BENCH_profiler.json

# Warn-only budget assertion for the bytecode-compiled interpreter cells:
# re-times perlbench and gcc against the baseline's per_bench rows and
# warns when either exceeds its recorded wall clock by the tolerance band.
bench-budget:
	$(GO) run ./cmd/albertabench -budget BENCH_profiler.json

# One-iteration pass over every go-test benchmark; catches bit-rot without
# the cost of a real measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./internal/perf/ ./internal/service/ .

# Full differential sweep: every benchmark × every workload, optimized
# profiler vs the test-only reference path attached in lockstep (perf) AND
# prepared vs cold runs (harness), Reports required bit-identical.
diff-full:
	ALBERTA_DIFF_FULL=1 $(GO) test -run 'TestSuiteDifferentialReference|TestPreparedMatchesColdRuns' -v ./internal/harness/ ./internal/perf/

# Sampled-vs-exact differential gate: every benchmark × every workload is
# measured both ways and each report counter must stay within its
# density-tiered tolerance (perf.DefaultTolerance). Hard fail — the errors
# are deterministic, so a violation is a regression, not noise.
diff-sampled:
	ALBERTA_DIFF_FULL=1 $(GO) test -run 'TestSampledWithinTolerance' -v ./internal/harness/

# End-to-end smoke of the albertad service: a single daemon run (envelope
# diffed against albertarun -json, cell-cache hit and dedup assertions,
# SIGTERM drain), then a coordinator + 2 workers run whose merged envelope
# must be byte-identical to the same baseline (wall_seconds normalized).
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end smoke of the workload-space sweep: 16 generated workloads ×
# 3 benchmarks through cmd/albertasweep (serial and parallel runs must
# emit byte-identical -json reports) and through POST /v1/sweeps (the
# streamed report frame must equal the CLI's, and a repeated sweep must
# answer every cell from the cache).
sweep-smoke:
	./scripts/sweep-smoke.sh

check: build vet fmt lint race
