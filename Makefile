GO ?= go

.PHONY: build test race vet fmt fuzz check bench lines

# Pre-PR gate: static checks, the full suite under the race detector and
# the fuzz pass. Run this before every PR.
check: fmt vet race fuzz

build:
	$(GO) build ./...

# Tier-1 gate.
test:
	$(GO) test ./...

# The full suite under the race detector: every chaos, smoke, storm and
# mux-pipelining test is an ordinary test in its package and runs here.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# No file gofmt would rewrite; the offenders are listed.
fmt:
	@out="$$(gofmt -l internal pkg cmd examples benchmark)"; test -z "$$out" || { echo "gofmt would rewrite:"; echo "$$out"; exit 1; }

# Short fuzz pass over the frame reader (with the statement payload's
# trailer-then-head decode), row-batch decoder and trace-context trailer,
# and over compile-then-bind against the reference rewrite. `go test` accepts one -fuzz target per invocation, hence
# separate runs.
fuzz:
	$(GO) test -fuzz 'FuzzReadFrame' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzDecodeRowBatch' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzTraceContext' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzBindMatchesReference' -fuzztime 10s -run '^$$' ./internal/rewrite/

# The gated benchmark (BENCHMARK.json): the only place performance is
# claimed.
bench:
	bash benchmark/run.sh

# ROADMAP aim 2's size measure: non-test Go lines outside benchmark/.
lines:
	@find internal pkg cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
