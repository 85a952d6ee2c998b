# Targets mirror the CI jobs (.github/workflows/ci.yml) so local dev and CI
# run the same commands.

GO ?= go

.PHONY: all build test benchmark-module race bench bench-smoke bench-pr bench-baseline bench-regression coverage lint lint-invariants fmt fuzz-smoke fuzz server-smoke docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a nested module the root ./... patterns never reach (the CI
# benchmark-module job): keep it compiling and its tests green against the
# current API.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Tiny-scale run of every paper experiment (the CI bench-smoke job).
bench-smoke:
	$(GO) test -run=Smoke -v ./internal/bench

# Short native-fuzz runs of everything that takes bytes from outside: the
# two input parsers and the server's wire sessions (the CI fuzz-smoke job).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/xpath
	$(GO) test -run=^$$ -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/xmldoc
	$(GO) test -run=^$$ -fuzz=FuzzWireSession -fuzztime=$(FUZZTIME) ./cmd/mmqjp-server

# Longer local fuzzing session (override FUZZTIME as needed).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=5m

# End-to-end server smoke: observability endpoints + snapshot/restart
# survival (the CI server-smoke job).
server-smoke:
	./scripts/server_smoke.sh

# Full benchmark suite (figures + microbenchmarks + workers/pipeline sweeps).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Scale of the CI bench-regression gate. BENCH_baseline.json is generated by
# `make bench-baseline` with exactly these flags; regenerate it (on the
# machine class the gate runs on) whenever an intentional perf change moves
# the numbers.
BENCH_GATE_FLAGS = -experiment workers,pipeline,churn,publishers,planning,partitions,scale,allocs -queries 300 -rss-items 400 -scale-queries 800 -scale-items 150 -partitions-sweep 1,2,4

bench-pr:
	$(GO) run ./cmd/mmqjp-bench $(BENCH_GATE_FLAGS) -json BENCH_pr.json

bench-baseline:
	$(GO) run ./cmd/mmqjp-bench $(BENCH_GATE_FLAGS) -json BENCH_baseline.json

# Fails when any throughput series of the gate experiments regressed >20%
# against the committed baseline, or any allocs/op series (the allocs
# experiment; lower is better, compared raw) grew >20% (the CI
# bench-regression job). Not part of `make ci`: single runs at a 20%
# threshold fail on random series with identical code on a noisy host
# (ROADMAP item 5a retires it in favour of benchmark/).
bench-regression: bench-pr
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json -threshold 20

# Per-package coverage (the CI coverage job uploads coverage.out).
coverage:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Documentation gate (the CI docs job): vet, every ```go block in the
# markdown guides compiles, no intra-repo markdown link is broken, and every
# mmqjp-server flag a guide mentions is defined by the server.
docs-check:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck README.md TUNING.md DESIGN.md ROADMAP.md

lint: lint-invariants
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs and runs it)"; fi

# Repo-invariant static analysis (cmd/mmqjplint): deterministic map
# iteration on output paths, //mmqjp:guardedby lock discipline,
# //mmqjp:shardowned shard ownership, Stats wiring, and a ban on wall-clock
# and unseeded randomness in internal/core. See DESIGN.md "Static
# invariants" for the directive grammar. The grep keeps the interpreted
# evaluator what it is documented as, a test-only reference: Stage 2 runs
# compiled programs (internal/core/cqplan.go).
lint-invariants:
	$(GO) run ./cmd/mmqjplint ./...
	@! grep -rn --include='*.go' --exclude='*_test.go' 'relation\.EvalConjunctive' . | grep -v '^\./internal/relation/' || { echo "relation.EvalConjunctive referenced outside tests (above): Stage 2 evaluates compiled programs only"; exit 1; }

fmt:
	gofmt -w .

ci: build lint test benchmark-module race bench-smoke fuzz-smoke server-smoke coverage docs-check
