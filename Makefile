GO ?= go

# Default developer loop: everything CI runs, in the same order.
.PHONY: all
all: vet build test

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# The fast inner loop: heavy sweeps (cache equivalence 40k-op streams,
# full-experiment determinism and golden runs) shrink or skip.
.PHONY: test-short
test-short:
	$(GO) test -short ./...

# The race detector is mandatory before merging: the board, injector,
# and shadow simulator all share counter banks.
.PHONY: race
race:
	$(GO) test -race ./...

# Run every fuzz target over its seed corpus only (no time-boxed
# exploration) — this is what CI executes. Use `make fuzz-long` locally
# to actually explore.
.PHONY: fuzz-seeds
fuzz-seeds:
	$(GO) test ./internal/cache/ ./internal/coherence/ ./internal/tracefile/ ./internal/obs/ ./internal/console/ ./internal/checkpoint/ ./internal/core/ ./internal/host/ -run 'Fuzz.*'

FUZZTIME ?= 2m
.PHONY: fuzz-long
fuzz-long:
	$(GO) test ./internal/cache/ -run FuzzPackedSlot -fuzz FuzzPackedSlot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coherence/ -run FuzzParseMapFile -fuzz FuzzParseMapFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coherence/ -run FuzzProtocolCompile -fuzz FuzzProtocolCompile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coherence/ -run FuzzModelCheck -fuzz FuzzModelCheck -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracefile/ -run FuzzRoundTripV2 -fuzz FuzzRoundTripV2 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run FuzzPromText -fuzz FuzzPromText -fuzztime $(FUZZTIME)
	$(GO) test ./internal/console/ -run FuzzConsoleCommand -fuzz FuzzConsoleCommand -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint/ -run FuzzSnapshotDecode -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run FuzzCheckpointRestore -fuzz FuzzCheckpointRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracefile/ -run FuzzV2MmapDecode -fuzz FuzzV2MmapDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/host/ -run FuzzEventWheel -fuzz FuzzEventWheel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/host/ -run FuzzPresence -fuzz FuzzPresence -fuzztime $(FUZZTIME)

# The fault-injection acceptance sweep at CI scale (~seconds), run
# serially (-parallel 1) so the output is the deterministic golden run.
.PHONY: faults
faults:
	$(GO) run ./cmd/experiments -run faults -scale ci -parallel 1

# Coverage with a ratcheted floor (ci/coverage-floor.txt). Raise the
# floor when coverage grows; CI fails if total coverage drops below it.
# The ratchet is over the product packages: the benchmark driver in
# bench/ is a main package whose timing loops its own 2 s test suite
# does not (and should not) walk; `make test`/`race` still run its tests.
PRODUCT_PKGS = $(shell $(GO) list ./... | grep -v '^memories/bench$$')
.PHONY: cover-check
cover-check:
	$(GO) test -coverprofile=cover.out $(PRODUCT_PKGS)
	sh ci/check-coverage.sh cover.out

# Benchmarks, matching the CI bench job's invocation. 1000x iterations
# measure only ~200us and are noise-dominated on shared runners; 20000x
# keeps the whole suite under ~3s while tightening medians enough for a
# 10% gate to be meaningful. The event-wheel scaling suite is opt-in
# (-hostscale) because one op emulates a 50k-cycle slab — it runs as a
# second pass with its own small iteration count, appended to the same
# file so benchdiff gates both.
BENCHTIME ?= 20000x
BENCHCOUNT ?= 6
HOSTSCALE_BENCHTIME ?= 30x
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -cpu 1 -benchmem . | tee bench.txt
	$(GO) test -run '^$$' -bench HostStepScaling -hostscale -benchtime $(HOSTSCALE_BENCHTIME) -count $(BENCHCOUNT) -cpu 1 -benchmem . | tee -a bench.txt

# Refresh the committed benchmark baseline (do this on the CI runner
# class you gate on; medians of -count runs absorb scheduling noise).
# Runs the full suite — the same invocation CI compares against — so the
# baseline carries the same cache/thermal context as the current run.
.PHONY: bench-baseline
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -cpu 1 -benchmem . | tee ci/bench-baseline.txt
	$(GO) test -run '^$$' -bench HostStepScaling -hostscale -benchtime $(HOSTSCALE_BENCHTIME) -count $(BENCHCOUNT) -cpu 1 -benchmem . | tee -a ci/bench-baseline.txt

# Compare bench.txt against the committed baseline: >10% median ns/op,
# B/op, or allocs/op regression on a Table3/Fig8/Obs/Checkpoint/HostStep
# kernel fails (a zero-alloc baseline that starts allocating fails at any
# threshold). ObsOverhead keeps the observability tax on the snoop
# kernel gated; CheckpointWrite keeps snapshot serialization MB/s gated;
# HostStepScaling keeps the event-wheel scheduler's cost of emulated
# time gated at every machine size.
.PHONY: bench-check
bench-check:
	$(GO) run ./cmd/benchdiff -baseline ci/bench-baseline.txt -current bench.txt -filter 'Table3|Fig8|Obs|Checkpoint|HostStep|Protocol' -threshold 0.10 -gate 'B/op,allocs/op'

# The trace-pipeline throughput gate: the v2 parallel reader must beat
# the v1 per-record reader's ns/rec by 2x. Needs real cores — on a
# single-CPU box the pipeline cannot scale and the gate will fail.
.PHONY: bench-trace
bench-trace:
	$(GO) test -run '^$$' -bench 'TraceRead' -benchtime 20000x -count $(BENCHCOUNT) -cpu 1,2,4 . | tee bench-trace.txt
	$(GO) run ./cmd/benchdiff -current bench-trace.txt \
		-ratio-base BenchmarkTraceReadV1 -ratio-new BenchmarkTraceReadV2Pipeline -min-ratio 2.0

# The sustained raw-speed gate: the board's batched-ingest tx/s and
# the host's emulated-cycles/sec (emc/s) are compared against the
# committed baseline HIGHER-is-better (-gate-up), so every rate that
# lands in ci/bench-throughput-baseline.txt becomes a ratcheted floor —
# improvements pass and re-baseline, regressions fail. ns/op on the same
# lines is gated lower-is-better by the default comparison; the two
# directions agree (slower = fail). -cpu 8 keeps the benchfmt key
# identical across runner core counts. The final cross-benchmark ratio
# gate holds the tentpole scaling claim: at 256 emulated CPUs the event
# wheel must produce emulated time >=10x cheaper (ns/emc) than the
# retained lock-step engine.
THROUGHPUT_BENCHTIME ?= 500000x
THROUGHPUT_COUNT ?= 5
.PHONY: bench-throughput
bench-throughput:
	$(GO) test -run '^$$' -bench 'BoardSustainedTxPerSec|HostStep$$' -benchtime $(THROUGHPUT_BENCHTIME) -count $(THROUGHPUT_COUNT) -cpu 8 . | tee bench-throughput.txt
	$(GO) test -run '^$$' -bench HostStepScaling -hostscale -benchtime $(HOSTSCALE_BENCHTIME) -count $(THROUGHPUT_COUNT) -cpu 8 . | tee -a bench-throughput.txt
	$(GO) run ./cmd/benchdiff -baseline ci/bench-throughput-baseline.txt -current bench-throughput.txt \
		-filter 'SustainedTxPerSec|HostStep' -threshold 0.10 -gate-up 'tx/s,emc/s' \
		-ratio-base 'BenchmarkHostStepScaling/engine=lockstep/cpus=256' \
		-ratio-new 'BenchmarkHostStepScaling/engine=wheel/cpus=256' \
		-ratio-metric 'ns/emc' -min-ratio 10

# Refresh the committed throughput baseline (run on the CI runner class
# you gate on — raising the floor is deliberate, done by committing the
# refreshed file).
.PHONY: bench-throughput-baseline
bench-throughput-baseline:
	$(GO) test -run '^$$' -bench 'BoardSustainedTxPerSec|HostStep$$' -benchtime $(THROUGHPUT_BENCHTIME) -count $(THROUGHPUT_COUNT) -cpu 8 . | tee ci/bench-throughput-baseline.txt
	$(GO) test -run '^$$' -bench HostStepScaling -hostscale -benchtime $(HOSTSCALE_BENCHTIME) -count $(THROUGHPUT_COUNT) -cpu 8 . | tee -a ci/bench-throughput-baseline.txt

# The process-level crash-safety oracle: builds cmd/experiments, kills
# it with SIGKILL mid-sweep, resumes from its journal, and requires
# output identical (modulo wall clock) to the uninterrupted run.
.PHONY: crash-resume
crash-resume:
	$(GO) test -race -run TestKillResume -v .

# The service load test: memloadgen self-hosts memoriesd's service
# layer and drives LOADSESSIONS concurrent sessions through the full
# create/ingest/stats/delete lifecycle, LOADCOUNT times. Bench-format
# p99/p50 lines go to loadtest.txt and benchdiff gates >10% median p99
# regressions against the committed baseline; the JSON artifact carries
# the full percentile/throughput breakdown for CI upload.
LOADSESSIONS ?= 1000
LOADCOUNT ?= 5
.PHONY: loadtest
loadtest:
	rm -f loadtest.txt
	$(GO) run ./cmd/memloadgen -sessions $(LOADSESSIONS) -count $(LOADCOUNT) \
		-bench loadtest.txt -json "LOADTEST_$$(date +%F).json"
	$(GO) run ./cmd/benchdiff -baseline ci/loadtest-baseline.txt -current loadtest.txt \
		-filter 'Loadtest' -threshold 0.10

# Refresh the committed load-test baseline (run on the CI runner class
# you gate on; medians across LOADCOUNT runs absorb scheduling noise).
.PHONY: loadtest-baseline
loadtest-baseline:
	rm -f ci/loadtest-baseline.txt
	$(GO) run ./cmd/memloadgen -sessions $(LOADSESSIONS) -count $(LOADCOUNT) \
		-bench ci/loadtest-baseline.txt

.PHONY: lint
lint:
	golangci-lint run

.PHONY: ci
ci: vet build race fuzz-seeds cover-check
