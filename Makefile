# Targets mirror the CI jobs (.github/workflows/ci.yml) so local dev and CI
# run the same commands.

GO ?= go

.PHONY: all build test alloc-ceilings counted-work benchmark-module race bench coverage lint lint-invariants loc fmt fuzz-smoke fuzz server-smoke docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The allocation ceilings (count and bytes per document and per Subscribe,
# fixed numbers), the retained-heap ceiling of standing subscriptions, and
# the server's allocation-free reply encoding and warm PUB, ten times over,
# so one that only passes once in a while — a pooled object lost to a
# collection, a map that grew — fails here and not at the benchmark gate (the
# CI alloc-ceilings job).
alloc-ceilings:
	$(GO) test -run 'AllocCeiling|BytesCeiling|HeapCeiling' -count=10 . ./internal/core ./internal/xmldoc
	$(GO) test -run 'DoesNotAllocate|AllocCeiling' -count=10 ./cmd/mmqjp-server

# The readings a PR quotes for its counted work and allocations, printed
# uncached: Stage 2's probes per match, per document and per row, Stage 1's
# triggered patterns and witness probes, allocations and bytes per document
# of the core and the facade publish, and the zero-Options run's exact probe
# pin. Each of these tests also fails on its own bound or pin.
COUNTED_CORE = TestWitnessOrderCountedWork|TestCompiledPlanCountedWorkCeiling|TestStage1CountedWork|TestPublishAllocCeiling
COUNTED_ROOT = TestEnginePublishAllocCeiling|TestZeroOptionsRunViewMaterialization
counted-work:
	bash -o pipefail -c "$(GO) test -v -count=1 -run '^($(COUNTED_CORE))$$' ./internal/core | grep -v '^=== '"
	bash -o pipefail -c "$(GO) test -v -count=1 -run '^($(COUNTED_ROOT))$$' . | grep -v '^=== '"

# benchmark/ is a nested module the root ./... patterns never reach (the CI
# benchmark-module job): keep it compiling and its tests green against the
# current API.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The whole tree under the race detector, then the concurrent-publisher and
# concurrent document-reader tests and internal/core's concurrent ingest (a
# record Stage 1 built on one goroutine, swapped into the state under the
# lock, its displaced storage pooled for another) and FuzzDifferential's
# seeds (three publishers against the sequential baseline, window expiry
# on) twenty times over, so a lock-order race or an expiry bug that only
# shows under one interleaving fails here (the CI race job).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'ConcurrentPublishers|ConcurrentSubscribePublish|ConcurrentDocumentReaders' .
	$(GO) test -race -count=20 -run 'IngestConcurrentSubmitDeterminism' ./internal/core
	$(GO) test -race -count=20 -run '^FuzzDifferential$$' .

# Short native-fuzz runs of everything that takes bytes from outside: the
# two input parsers (the XML scanner twice: round trip, and against
# encoding/xml and its own reparse into a used document) and the server's
# wire sessions, plus Stage-1 witness
# assembly against its naive oracle, window expiry of the join state
# against a rebuild, the join state's value dictionary under inserts and
# retirements against a map, template canonicalization against its string-
# signature reference, the result order — a merge of sorted query runs —
# against the comparison sort, the Stage-2 vector-group trie, its window
# classes and the join index against a map, the Stage-1 row items and their
# counts under registration churn against a from-scratch recount, snapshot
# restore on arbitrary bytes, and the engine's matches on a generated
# subscription and document stream against the sequential baseline (the CI
# fuzz-smoke job). -fuzz takes one target per run, so a package
# with several names each with an anchored pattern.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/xpath
	$(GO) test -run=^$$ -fuzz='^FuzzParseDocument$$' -fuzztime=$(FUZZTIME) ./internal/xmldoc
	$(GO) test -run=^$$ -fuzz='^FuzzParseMatchesStdlib$$' -fuzztime=$(FUZZTIME) ./internal/xmldoc
	$(GO) test -run=^$$ -fuzz='^FuzzWitnessesMatchNaive$$' -fuzztime=$(FUZZTIME) ./internal/yfilter
	$(GO) test -run=^$$ -fuzz='^FuzzStateExpiry$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzValueDictionary$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzCanonicalize$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzMatchOrder$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzTrieChurn$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzItemChurn$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzWireSession -fuzztime=$(FUZZTIME) ./cmd/mmqjp-server
	$(GO) test -run=^$$ -fuzz='^FuzzOpenEngine$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz='^FuzzDifferential$$' -fuzztime=$(FUZZTIME) .

# Longer local fuzzing session (override FUZZTIME as needed).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=5m

# End-to-end server smoke: observability endpoints + snapshot/restart
# survival (the CI server-smoke job).
server-smoke:
	./scripts/server_smoke.sh

# Every Go benchmark in the module, one iteration each — the paper's Table 3
# and Figures 8-16 at reduced scale and the subsystem micro-benchmarks — so a
# benchmark that no longer builds or runs fails here (the CI bench-smoke job).
# Not a gate on any number: a performance statement is made with
# `bash benchmark/run.sh` (BENCHMARK.json).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Per-package coverage, also kept in coverage-by-package.txt (the CI coverage
# job puts that file in its summary and uploads coverage.out). pipefail keeps
# a failing test from hiding behind tee.
coverage:
	bash -o pipefail -c '$(GO) test -coverprofile=coverage.out -covermode=atomic ./... | tee coverage-by-package.txt'
	$(GO) tool cover -func=coverage.out | tail -n 1

# Documentation gate (the CI docs job): vet, every ```go block in the
# markdown guides compiles, no intra-repo markdown link is broken, every
# mmqjp-server flag a guide mentions is defined by the server, and every make
# target, ./cmd directory and mmqjp-bench experiment a guide quotes exists.
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
# iteration on output paths, //mmqjp:guardedby lock discipline, a ban on
# wall-clock and unseeded randomness in internal/core, and //mmqjp:pooled
# sync.Pool arguments. See DESIGN.md "Static invariants" for the directive
# grammar.
lint-invariants:
	$(GO) run ./cmd/mmqjplint ./...

# Go lines: non-test and test outside benchmark/, and the nested benchmark
# module — the three numbers a PR that claims a reduction quotes.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l | xargs echo non-test
	@find . -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l | xargs echo test
	@find ./benchmark -name '*.go' | xargs cat | wc -l | xargs echo benchmark/

fmt:
	gofmt -w .

ci: build lint test alloc-ceilings benchmark-module race fuzz-smoke server-smoke coverage docs-check bench
