GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet fmt race bench bench-solver bench-planner bench-cache bench-disk bench-stream bench-stream-quick bench-serve bench-serve-quick bench-extract bench-extract-quick bench-isa bench-isa-quick check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The experiments package runs ~2.5 min without -race; with the race
# detector on a small machine it can exceed go test's default 10m
# per-package timeout, so give the suite explicit headroom.
race:
	$(GO) test -race -timeout 25m ./...

# Micro-benchmarks: parallel minimization, then extraction, the syntactic
# count, the assembler and the planner search with their allocations per op.
bench:
	$(GO) test -run xxx -bench 'Parallel' -benchtime 3x ./internal/subsume/
	$(GO) test -run xxx -bench . -benchmem -benchtime 3x ./internal/gadget/ ./internal/asm/ ./internal/planner/

# Solver triage benchmark; writes BENCH_SOLVER.json next to BENCH_PIPELINE.json.
bench-solver:
	$(GO) run ./cmd/experiments -run solverbench

# Multi-goal planner benchmark (serial seed path vs cached parallel search);
# writes BENCH_PLANNER.json and cross-checks plan/payload identity.
bench-planner:
	$(GO) run ./cmd/experiments -run plannerbench

# Artifact-store benchmark: the deterministic experiment suite cold vs warm
# against one content-addressed store; writes BENCH_CACHE.json (suite
# wall-times, per-stage hit rates) and cross-checks that every rendered
# table is byte-identical between the two passes.
bench-cache:
	$(GO) run ./cmd/experiments -run cachebench -quick

# Persistent-store benchmark: the suite cold, warm in-process, and warm
# across processes (a fresh store reading a prior store's cache directory);
# writes BENCH_DISK.json and cross-checks table identity in every arm,
# including the -nodisk one.
bench-disk:
	$(GO) run ./cmd/experiments -run diskbench -quick

# Streaming corpus benchmark: a generated several-hundred-cell matrix fanned
# through the bounded-memory runner — cold, warm across processes at
# parallelism 1/2/8, and under a starved disk budget so the LRU evictor
# cycles; writes BENCH_STREAM.json + per-cell BENCH_STREAM.jsonl and
# cross-checks aggregate-table identity in every arm.
bench-stream:
	$(GO) run ./cmd/experiments -stream

bench-stream-quick:
	$(GO) run ./cmd/experiments -stream -quick

# Analysis-service benchmark: the request set per-process cold vs served by
# one warm shared gpd-style server over a unix socket, at client concurrency
# 1/4/16 plus an 8-way identical-submission dedup arm; writes
# BENCH_SERVE.json and cross-checks every response byte-identical to the
# local per-process reference.
bench-serve:
	$(GO) run ./cmd/experiments -run servebench

bench-serve-quick:
	$(GO) run ./cmd/experiments -run servebench -quick

# Cold-extraction benchmark: gadget extraction with the shared predecode
# table on vs off (the seed's decode-per-step walk) on obfuscated and
# virtualized netperf-sim builds; writes BENCH_EXTRACT.json and cross-checks
# pool identity across table on/off x parallelism 1/2/8 x stride 1/2.
bench-extract:
	$(GO) run ./cmd/experiments -run extractbench

bench-extract-quick:
	$(GO) run ./cmd/experiments -run extractbench -quick

# Multi-backend attack-surface benchmark: classic counts and extracted pool
# sizes per instruction-set backend (x64, rv64, rv64c) on original vs
# obfuscated builds; writes BENCH_ISA.json and cross-checks the C-extension
# claim (rv64c pools strictly larger than aligned rv64) plus per-backend
# pool identity across parallelism 1/2/8 x predecode table on/off.
bench-isa:
	$(GO) run ./cmd/experiments -run isabench

bench-isa-quick:
	$(GO) run ./cmd/experiments -run isabench -quick

# CI gate: formatting, static checks, the full test suite under the race
# detector, and the benchmarks' built-in determinism/identity cross-checks.
check: fmt vet race bench-planner bench-cache bench-disk bench-stream-quick bench-serve-quick bench-extract-quick bench-isa-quick
