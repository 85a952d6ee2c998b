# Targets mirror the CI jobs (.github/workflows/ci.yml) so local dev and CI
# run the same commands.

GO ?= go

.PHONY: all build test alloc-ceilings benchmark-module race bench coverage lint lint-invariants loc fmt fuzz-smoke fuzz server-smoke docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The allocation ceilings (count and bytes per document and per Subscribe,
# fixed numbers) and the retained-heap ceiling of standing subscriptions ten
# times over, so one that only passes once in a while — a pooled object lost
# to a collection, a map that grew — fails here and not at the benchmark gate
# (the CI alloc-ceilings job).
alloc-ceilings:
	$(GO) test -run 'AllocCeiling|BytesCeiling|HeapCeiling' -count=10 . ./internal/core ./internal/xmldoc

# benchmark/ is a nested module the root ./... patterns never reach (the CI
# benchmark-module job): keep it compiling and its tests green against the
# current API.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzz runs of everything that takes bytes from outside: the
# two input parsers (the XML scanner twice: round trip, and against
# encoding/xml) and the server's wire sessions, plus Stage-1 witness
# assembly against its naive oracle, window expiry of the join state
# against a rebuild, template canonicalization against its string-
# signature reference, the radix result order against the comparison sort,
# and the Stage-2 vector-group trie against a map (the CI fuzz-smoke job). -fuzz takes one target per run, so a package
# with several names each with an anchored pattern.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/xpath
	$(GO) test -run=^$$ -fuzz='^FuzzParseDocument$$' -fuzztime=$(FUZZTIME) ./internal/xmldoc
	$(GO) test -run=^$$ -fuzz='^FuzzParseMatchesStdlib$$' -fuzztime=$(FUZZTIME) ./internal/xmldoc
	$(GO) test -run=^$$ -fuzz='^FuzzWitnessesMatchNaive$$' -fuzztime=$(FUZZTIME) ./internal/yfilter
	$(GO) test -run=^$$ -fuzz='^FuzzStateExpiry$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzCanonicalize$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzMatchOrder$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzTrieChurn$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzWireSession -fuzztime=$(FUZZTIME) ./cmd/mmqjp-server

# Longer local fuzzing session (override FUZZTIME as needed).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=5m

# End-to-end server smoke: observability endpoints + snapshot/restart
# survival (the CI server-smoke job).
server-smoke:
	./scripts/server_smoke.sh

# The paper's Table 3 and Figures 8-16 at reduced scale plus the subsystem
# micro-benchmarks, one iteration each. Not a CI job and not a gate: a
# performance statement is made with `bash benchmark/run.sh` (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Per-package coverage (the CI coverage job uploads coverage.out).
coverage:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
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

ci: build lint test alloc-ceilings benchmark-module race fuzz-smoke server-smoke coverage docs-check
