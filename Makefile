# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

# bench regression gate: percent the gated metric may regress vs the
# committed BENCH_engine.json before `make bench` fails; 0 disables.
BENCH_MAX_REGRESS ?= 0
# Metric the gate compares: trials_per_sec (a drop fails) or
# allocs_per_op (an increase fails; deterministic, so the right choice
# on noisy shared runners).
BENCH_REGRESS_METRIC ?= trials_per_sec
# Batch geometry of the engine benchmarks: trials per wire frame and
# batches in flight. Empty uses the in-tree defaults (256/4); a batch of
# 0 benches one trial per frame.
BENCH_BATCH ?=
BENCH_WINDOW ?=
# Per-benchmark time budget passed to `go test -benchtime`, e.g. 2s or
# 5000x for a fixed trial count (what CI uses for stable allocs/op).
BENCH_TIME ?= 1s

.PHONY: all build vet staticcheck govulncheck lint lint-json lint-escape test test-short test-race cover bench bench-all bench-history verify results clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet, gated on the binary being installed: the
# target is a no-op (with a note) where staticcheck is unavailable, so
# `make test` works on a bare Go toolchain. In CI (CI=1) a missing
# binary is an error instead of a note, so the pipeline cannot silently
# skip the check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck not installed but CI is set; failing (go install honnef.co/go/tools/cmd/staticcheck@latest)" >&2; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Known-vulnerability scan, gated like staticcheck: a no-op note where
# govulncheck is unavailable, a hard failure under CI=1 so the pipeline
# cannot silently skip it.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "govulncheck not installed but CI is set; failing (go install golang.org/x/vuln/cmd/govulncheck@latest)" >&2; \
		exit 1; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The repo's own contract analyzers (stdlib-only, no tool install
# needed): determinism, scratch aliasing, float equality, frame
# discipline, context propagation, seed purity, and the call-graph-aware
# hot-path rules (alloc-freedom, atomic discipline, goroutine joins,
# wire exhaustiveness). One invocation runs every rule over every
# package against a single cached call-graph Program — the load and
# graph cost is paid once, and the total analysis wall time prints on
# stderr. See README "Static analysis" and DESIGN.md sections 7 and 12.
lint:
	$(GO) run ./cmd/dutlint ./...

# Machine-readable findings (suppressed included, marked) for CI
# artifact upload.
lint-json:
	$(GO) run ./cmd/dutlint -json ./... > dutlint.json

# Compiler escape-analysis diff: every heap escape `go build
# -gcflags=-m=2` reports inside a //dut:hotpath-reachable function must
# be flagged by dut/hotalloc, covered by a documented //lint:ignore, or
# sit in a cold or guarded-grow block. Fails when the compiler sees an
# allocation the analyzer has no account of.
lint-escape:
	$(GO) run ./cmd/dutlint -escape ./...

# The default test target vets everything, runs staticcheck when
# available, and additionally runs the concurrency-heavy packages (the
# networked referee/nodes, the engine's worker-pool driver, and the
# pooled collision statistic every backend's local rule shares) under
# the race detector. That race pass covers the cross-topology determinism
# tests — flat star vs sharded referee tree on a fixed small budget
# (engine/crosstopology_test.go, network/sharded_test.go) — so a data
# race anywhere on the aggregation path fails CI. The plain pass
# includes the allocation guards (dist.SampleInto, engine.ReusableRNG,
# the SMP scratch hot path, the paper's collision rules, and the L1
# reduce/root decide path); they skip themselves in the race pass,
# whose instrumentation allocates.
# dutlint runs once here: all ten rules share one cached load and call
# graph per invocation, so splitting rules across targets would re-pay
# the load cost per rule for nothing.
test: vet staticcheck lint lint-escape
	$(GO) test ./...
	$(GO) test -race ./internal/network/... ./internal/engine/... \
		./internal/centralized/... ./internal/core/... ./internal/congest/...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Engine throughput: trials/sec per backend (SMP, cluster, CONGEST)
# under the unified driver, distilled into BENCH_engine.json. The
# committed report is read first and per-benchmark deltas (trials/sec,
# B/op, allocs/op) are printed before it is overwritten. BENCH_BATCH /
# BENCH_WINDOW select the wire batch geometry, BENCH_TIME the benchtime,
# and BENCH_MAX_REGRESS / BENCH_REGRESS_METRIC the regression gate.
bench:
	BENCH_BATCH=$(BENCH_BATCH) BENCH_WINDOW=$(BENCH_WINDOW) \
		$(GO) test -bench . -benchmem -benchtime $(BENCH_TIME) -run '^$$' ./internal/engine | tee bench_engine.txt
	$(GO) run ./cmd/benchjson -baseline BENCH_engine.json -o BENCH_engine.json \
		-max-regress $(BENCH_MAX_REGRESS) -regress-metric $(BENCH_REGRESS_METRIC) < bench_engine.txt
	@echo "wrote BENCH_engine.json"
	@mkdir -p results/bench
	@sha="$$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"; \
	dirty=""; \
	if [ -n "$$(git status --porcelain -- . ':!BENCH_engine.json' ':!bench_engine.txt' ':!results' 2>/dev/null)" ]; then dirty="-dirty"; fi; \
	cp BENCH_engine.json "results/bench/$$sha$$dirty.json"; \
	echo "archived results/bench/$$sha$$dirty.json"

# Every benchmark in the repository (experiments + micro-benchmarks).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Per-benchmark trend table over the archived `make bench` reports:
# trials/sec and allocs/op per commit, rendered to
# results/bench/TREND.md. CI regenerates and uploads it next to
# BENCH_engine.json after the bench gate.
bench-history:
	$(GO) run ./cmd/benchjson -history results/bench

# Numeric verification of every lemma/claim (exhaustive small instances).
verify:
	$(GO) run ./cmd/dut verify

# Regenerate every experiment table quoted in EXPERIMENTS.md.
results:
	$(GO) run ./cmd/dut exp -run all -scale 1 -seed 1 -out results -csv

clean:
	rm -f test_output.txt bench_output.txt bench_engine.txt dutlint.json
