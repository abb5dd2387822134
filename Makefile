GO ?= go

.PHONY: build test race vet fmt reach fuzz check bench pairs trajectory lines

# Pre-PR gate: static checks, the reachability check, the full suite
# under the race detector and the fuzz pass. Run this before every PR.
check: fmt vet reach race fuzz

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

# Every exported name in internal/, pkg/ and cmd/ has a caller outside
# test files, or an allowlist entry with its reason. It type-checks the
# whole module from source, standard library included, which takes
# seconds; the build tag keeps it out of the tier-1 `go test ./...`.
reach:
	$(GO) test -tags reach -count=1 ./internal/reach

# Short fuzz pass over the frame reader (with the statement payload's
# trailer-then-head decode, table lists and their EOF row counts
# included), row-batch decoder and trace-context trailer,
# over compile-then-bind against the reference rewrite, over Normalize
# against the parser, and over grouped statements and joins at four shards
# against one engine, over the B-tree against a sorted slice, over
# sqltypes.Coerce's narrowing property on arbitrary strings, ints and
# floats, over the storage record's exact round trip of arbitrary rows,
# over a kept spelling's binding against normalizing its text, and over
# the merger's streaming ordered DISTINCT against deduping in memory.
# `go test` accepts one -fuzz target per invocation, hence separate runs.
fuzz:
	$(GO) test -fuzz 'FuzzReadFrame' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzDecodeRowBatch' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzTraceContext' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzBindMatchesReference' -fuzztime 10s -run '^$$' ./internal/rewrite/
	$(GO) test -fuzz 'FuzzNormalize' -fuzztime 10s -run '^$$' ./internal/sqlparser/
	$(GO) test -fuzz 'FuzzGroupedMatchesOneEngine' -fuzztime 10s -run '^$$' ./pkg/shardingdb/
	$(GO) test -fuzz 'FuzzJoinMatchesOneEngine' -fuzztime 10s -run '^$$' ./pkg/shardingdb/
	$(GO) test -fuzz 'FuzzTreeAgainstSortedSlice' -fuzztime 10s -run '^$$' ./internal/btree/
	$(GO) test -fuzz 'FuzzCoerce' -fuzztime 10s -run '^$$' ./internal/sqltypes/
	$(GO) test -fuzz 'FuzzSpelling' -fuzztime 10s -run '^$$' ./internal/core/
	$(GO) test -fuzz 'FuzzRecord' -fuzztime 10s -run '^$$' ./internal/storage/
	$(GO) test -fuzz 'FuzzDistinctRuns' -fuzztime 10s -run '^$$' ./internal/merge/

# The gated benchmark (BENCHMARK.json): the only place performance is
# claimed.
bench:
	bash benchmark/run.sh

# A perf claim's evidence (ROADMAP: >= 10 alternating parent/change pairs):
#   make pairs PARENT=<ref> WORKLOAD=<name> [N=10] [SEED=1]
# checks PARENT out as a git worktree under .bench_build/, runs the two
# trees' own benchmarks in turn (which side goes first alternates too),
# prints `benchmark diff` of the two sets of result files, then the paired
# verdict (PAIRED_VERDICT below).
PARENT ?= HEAD~1
N ?= 10
SEED ?= 1

# The paired verdict, per (workload, gated metric): the median of the
# per-pair B/A ratios (`benchmark diff parent<i> change<i>`), the pairs B
# won, and "unresolved" when the parent's IQR / median (spreadA of the
# set diff, the first file) exceeds the metric's bound; otherwise "worse"
# when the median ratio is past the bound, else "ok". The pair diffs come
# on stdin.
define PAIRED_VERDICT
FNR == NR { if (NF == 8 && $$6 ~ /%$$/) spread[$$1 " " $$2] = $$7; next }
NF == 8 && $$6 ~ /%$$/ {
	k = $$1 " " $$2; if (!(k in n)) keys[++nk] = k
	r[k, ++n[k]] = $$5; bound[k] = $$6 + 0
	if ((bound[k] < 0 && $$5 > 1) || (bound[k] > 0 && $$5 < 1)) won[k]++
}
END {
	printf "\npaired verdict (median of per-pair B/A; won = pairs where B is better)\n"
	printf "%-16s %-8s %8s %7s %7s %8s  %s\n", "workload", "metric", "B/A", "won", "bound", "spreadA", "verdict"
	for (i = 1; i <= nk; i++) {
		k = keys[i]; c = n[k]
		for (a = 1; a <= c; a++) s[a] = r[k, a]
		for (a = 2; a <= c; a++) for (b = a; b > 1 && s[b-1] > s[b]; b--) { t = s[b]; s[b] = s[b-1]; s[b-1] = t }
		med = (c % 2) ? s[(c+1)/2] : (s[c/2] + s[c/2+1]) / 2
		lim = bound[k] < 0 ? -bound[k] : bound[k]
		v = "ok"
		if (spread[k] + 0 > lim) v = "unresolved"
		else if ((bound[k] < 0 && med < 1 - lim/100) || (bound[k] > 0 && med > 1 + lim/100)) v = "worse"
		split(k, f, " ")
		printf "%-16s %-8s %8.4f %3d/%-3d %+6d%% %8s  %s\n", f[1], f[2], med, won[k], c, bound[k], spread[k], v
	}
}
endef
export PAIRED_VERDICT

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
	bash benchmark/run.sh diff $${p#,} $${c#,} | tee $$out/diff.txt; \
	for i in $$(seq 1 $(N)); do bash benchmark/run.sh diff $$out/parent$$i.json $$out/change$$i.json; done \
		| awk "$$PAIRED_VERDICT" $$out/diff.txt -

# The committed trajectory: `benchmark diff` of each root BENCH_<pr>.json
# against the one before it, oldest to newest.
trajectory:
	@set -e; prev=; for f in $$(ls BENCH_*.json | sort -V); do \
		if [ -n "$$prev" ]; then echo "=== $$prev -> $$f"; bash benchmark/run.sh diff $$prev $$f; echo; fi; \
		prev=$$f; \
	done

# ROADMAP aim 2's size measure: non-test Go lines outside benchmark/.
lines:
	@find internal pkg cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
