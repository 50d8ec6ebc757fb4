# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet fmt staticcheck govulncheck lint lint-json lint-escape test test-short test-race cover bench-all verify results clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails, naming the files, when any Go file in the tree
# (the bench/ module and lint fixtures included) is not gofmt-clean.
fmt:
	@files="$$(gofmt -l .)"; test -z "$$files" || { echo "not gofmt-clean:" >&2; echo "$$files" >&2; exit 1; }

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

# The default test target checks gofmt, vets everything, runs
# staticcheck when available, and additionally runs the
# concurrency-heavy packages (the
# networked referee/nodes, the engine's worker-pool driver, the
# pooled collision statistic the SMP workers share, and the CONGEST
# workers, each with its own rule copy) under
# the race detector. That race pass covers the cross-topology determinism
# tests — flat star vs sharded referee tree on a fixed small budget
# (engine/crosstopology_test.go, network/sharded_test.go) — so a data
# race anywhere on the aggregation path fails CI. The plain pass
# includes the allocation guards (the sampler kernels, engine.ReusableRNG
# reseeding and SampleInto, the SMP scratch hot path, the paper's
# collision rules, the L1 reduce/root decide path, a warm batch on every
# cluster geometry, and the engine's gates: a warm call on every backend
# allocates a fixed count whatever its trial count, and a cold call on a
# k=1024 referee tree stays within its budget); they skip themselves in
# the race pass, whose instrumentation allocates.
# dutlint runs once here: all ten rules share one cached load and call
# graph per invocation, so splitting rules across targets would re-pay
# the load cost per rule for nothing.
test: fmt vet staticcheck lint lint-escape
	$(GO) test ./...
	$(GO) test -race ./internal/network/... ./internal/engine/... \
		./internal/centralized/... ./internal/core/... ./internal/congest/...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Every benchmark in the repository (experiments + micro-benchmarks).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Numeric verification of every lemma/claim (exhaustive small instances).
verify:
	$(GO) run ./cmd/dut verify

# Regenerate every experiment table quoted in EXPERIMENTS.md.
results:
	$(GO) run ./cmd/dut exp -run all -scale 1 -seed 1 -out results -csv

clean:
	rm -f dutlint.json
