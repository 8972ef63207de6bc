GO ?= go

# Default developer loop: the quick checks. `make ci` is the pre-merge
# set (race, plain experiment goldens, fuzz seeds, coverage ratchet); the
# workflow runs bench-selfcheck (the ledger job), crash-resume and
# loadtest as jobs of their own.
.PHONY: all
all: vet build test

.PHONY: vet
vet:
	$(GO) vet ./...

# Every Go file is gofmt-clean.
.PHONY: fmt
fmt:
	test -z "$$(gofmt -l .)"

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

# The session service's pooled body buffers and record slabs, hammered:
# concurrent clients through the 429-and-re-issue path, ten times over.
.PHONY: race-ingest
race-ingest:
	$(GO) test -race -count=10 -run 'TestConcurrentClients|TestConcurrentDistinctBodies' ./internal/service

# The bus tap that feeds boards beside the host, hammered: the tap's own
# equivalence and lifetime tests, every Session test (the board on its
# worker goroutine) and streamRun's, ten times over.
.PHONY: race-tap
race-tap:
	$(GO) test -race -count=10 -run 'Tap|Session' ./internal/core . ./internal/experiments

# The experiment goldens, the fig8 snapshot determinism check and the
# parallel-equivalence check skip under the race detector, so they get
# their own plain run (~40 s on 2 vCPUs).
.PHONY: experiments
experiments:
	$(GO) test -count=1 ./internal/experiments

# Run every fuzz target over its seed corpus only (no time-boxed
# exploration) — this is what CI executes. Use `make fuzz-long` locally
# to actually explore.
.PHONY: fuzz-seeds
fuzz-seeds:
	$(GO) test ./internal/cache/ ./internal/coherence/ ./internal/tracefile/ ./internal/obs/ ./internal/console/ ./internal/checkpoint/ ./internal/core/ ./internal/host/ ./internal/workload/ ./internal/service/ -run 'Fuzz.*'

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
	$(GO) test ./internal/core/ -run FuzzSnoopBatchSplits -fuzz FuzzSnoopBatchSplits -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracefile/ -run FuzzV2Decode -fuzz FuzzV2Decode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracefile/ -run FuzzConvertV1 -fuzz FuzzConvertV1 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/host/ -run FuzzEventWheel -fuzz FuzzEventWheel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/host/ -run FuzzPresence -fuzz FuzzPresence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload/ -run FuzzZipfExact -fuzz FuzzZipfExact -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run FuzzCreateSession -fuzz FuzzCreateSession -fuzztime $(FUZZTIME)

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

# The one benchmark system (bench/README.md, BENCHMARK.json): all six
# workloads, end-to-end and per-layer metrics. `bench-selfcheck` runs
# each workload twice — stats digests against bench/expected/,
# ref_err == 0, the two runs within their bounds — and is the only
# performance-side gate CI runs; a change's timings are judged by paired
# parent-vs-change runs, not against a stored baseline.
.PHONY: bench
bench:
	$(GO) run ./bench

.PHONY: bench-selfcheck
bench-selfcheck:
	$(GO) run ./bench -selfcheck

# The process-level crash-safety oracle: builds cmd/experiments, kills
# it with SIGKILL mid-sweep, resumes from its journal, and requires
# output identical (modulo wall clock) to the uninterrupted run.
.PHONY: crash-resume
crash-resume:
	$(GO) test -race -run TestKillResume -v .

# The service stress test: memloadgen self-hosts memoriesd's service
# layer and drives LOADSESSIONS sessions through the full
# create/ingest/stats/delete lifecycle, exiting non-zero if any
# lifecycle fails. It is pass/fail only: service speed is read from the
# ledger's service_ingest workload.
LOADSESSIONS ?= 5000
.PHONY: loadtest
loadtest:
	$(GO) run ./cmd/memloadgen -sessions $(LOADSESSIONS)

.PHONY: lint
lint:
	golangci-lint run

# Every package under internal/ must be imported by a binary, an
# example, the benchmark driver or the root facade, and every function a
# product package declares must be linked into one of those binaries or
# listed, with its reason, in ci/test-only-api.txt.
.PHONY: reachable
reachable:
	sh ci/check-reachable.sh

# The leaves the board's per-transaction loop inlines must stay within
# the compiler's inlining budget (ci/check-inline.sh lists them).
.PHONY: inline
inline:
	sh ci/check-inline.sh

# The prefetch hint (internal/prefetch) is assembly on amd64 and arm64
# and a pure-Go no-op elsewhere: build the fallback for a GOARCH without
# assembly, and vet the arm64 file's frame declarations (asmdecl) from
# any machine. The macOS CI legs run the arm64 assembly under test.
.PHONY: cross
cross:
	GOARCH=386 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/prefetch

.PHONY: ci
ci: fmt vet build cross reachable inline race race-ingest race-tap experiments fuzz-seeds cover-check
