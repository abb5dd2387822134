GO ?= go

.PHONY: build test race vet fmt fuzz check bench pairs lines

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

# A perf claim's evidence (ROADMAP: >= 10 alternating parent/change pairs):
#   make pairs PARENT=<ref> WORKLOAD=<name> [N=10] [SEED=1]
# checks PARENT out as a git worktree under .bench_build/, runs the two
# trees' own benchmarks in turn (which side goes first alternates too) and
# prints `benchmark diff` of the two sets of result files.
PARENT ?= HEAD~1
N ?= 10
SEED ?= 1
pairs:
	@test -n "$(WORKLOAD)" || { echo "usage: make pairs PARENT=<ref> WORKLOAD=<name> [N=10] [SEED=1]"; exit 2; }
	@set -e; out=$$PWD/.bench_build/pairs; mkdir -p $$out; \
	git worktree remove --force $$out/parent 2>/dev/null || true; \
	git worktree add --detach $$out/parent $(PARENT) >/dev/null; \
	p=; c=; for i in $$(seq 1 $(N)); do \
		order="parent change"; [ $$((i % 2)) = 1 ] || order="change parent"; \
		for side in $$order; do \
			dir=.; [ $$side = change ] || dir=$$out/parent; \
			bash $$dir/benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --trace 0 --out $$out/$$side$$i.json | tail -n 1; \
		done; \
		p=$$p,$$out/parent$$i.json; c=$$c,$$out/change$$i.json; \
	done; \
	git worktree remove --force $$out/parent; \
	bash benchmark/run.sh diff $${p#,} $${c#,}

# ROADMAP aim 2's size measure: non-test Go lines outside benchmark/.
lines:
	@find internal pkg cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
