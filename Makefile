GO ?= go

.PHONY: build test race bench bench-plancache bench-remote bench-stream bench-storm bench-txn bench-digest vet check chaos fuzz-smoke race-pipeline obs-smoke stream-smoke storm-smoke txn-smoke digest-smoke

# Pre-PR gate: static checks, the full suite under the race detector,
# the wire-protocol fuzz smoke, the pipelined-mux concurrency tests and
# the observability-, streaming-, storm-, transaction- and workload-plane
# smokes. Run this before every PR.
check: vet race race-pipeline fuzz-smoke obs-smoke stream-smoke storm-smoke txn-smoke digest-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: the full suite must also pass under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fault-injection smoke suite: chaos faults, breaker transitions,
# retry/failover, fail-fast fan-out and pool resilience, under -race.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Breaker|FailFast|Retry|Transient|Defunct|AcquireCtx|Exhaustion|Deadline|Timeout' \
		./internal/chaos/ ./internal/governor/ ./internal/exec/ ./internal/resource/ ./internal/distsql/

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

bench-plancache:
	$(GO) test -run xxx -bench 'PointSelect|RepeatedShape' -benchtime 2s ./internal/bench/

# Paired trace-propagation overhead measurement over a remote data node.
bench-remote:
	$(GO) test -run 'TestTraceOverhead' -v ./internal/bench/

# Streaming scatter-gather measurement: bounded-memory merge vs full
# drain (peak live heap), time-to-first-row, and early cursor stop over
# two wire-v2 data nodes. Numbers feed EXPERIMENTS.md.
bench-stream:
	$(GO) test -run 'TestStreamMemoryAndTTFR' -v -count=1 ./internal/bench/

# Fast streaming acceptance drill: cross-shard ORDER BY order, bounded
# batch windows, early-stop lease release — plus the mid-stream
# cancellation/kill suite and the chaos hang during a streaming merge,
# all under -race.
stream-smoke:
	$(GO) test -race -run 'TestStreamSmoke' -v ./internal/bench/
	$(GO) test -race -run 'TestCursorCancelEarlyStop|TestStreamWindowBounded|TestStreamingLimitStopsShards|TestClientAbandonCascadesCancelToShards|TestClientKillMidStreamReleasesEverything|TestDatanodeKillMidStream' \
		./internal/proxy/
	$(GO) test -race -run 'TestChaosHangDuringStreamingMerge' ./internal/distsql/

# Overload-protection smoke: a connection storm at >= 3x saturation must
# keep admitted p99 inside the unloaded envelope, shed the excess with
# the typed overload error (no silent drops) and leak no goroutines,
# plus the admission/drain/slow-loris unit suite under -race. The storm
# itself runs without -race — the 2x latency envelope is a timing
# criterion and the race detector distorts it.
storm-smoke:
	$(GO) test -run 'TestStormSmoke' -v -count=1 ./internal/bench/
	$(GO) test -race -run 'TestStatementShedTypedError|TestConnCapTypedRejection|TestSlowLorisReclaimed|TestDrainNotDrop|TestAcceptTransientRetry|TestAcceptPermanentErrorStillFatal' \
		./internal/proxy/

# Longer storm run for the EXPERIMENTS.md measurement.
bench-storm:
	STORM_DURATION=3s $(GO) test -run 'TestStormSmoke' -v -count=1 ./internal/bench/

# Transaction-plane smoke: the full commit-path suite (fast path, lazy
# XA upgrade, group-commit race, prepare-failure cleanup, deadlines,
# recovery), the coordinator-crash chaos acceptance and the in-doubt
# wire-contract test, all under -race.
txn-smoke:
	$(GO) test -race -count=1 ./internal/transaction/
	$(GO) test -race -run 'TestTxnChaos' -count=1 ./internal/distsql/
	$(GO) test -race -run 'TestInDoubtOverWire' -count=1 ./internal/proxy/

# TPC-C Payment commit-path benchmark at 32 workers: parallel phases +
# group commit (cross-shard) and the single-shard 1PC fast path, with the
# path counters asserted. Numbers feed EXPERIMENTS.md.
bench-txn:
	TXN_DURATION=3s $(GO) test -run 'TestTxnThroughput' -v -count=1 ./internal/bench/

# Observability-plane smoke: a proxy kernel over two wire-v2 data nodes
# runs a traced statement (remote child spans + wire gap must appear)
# and SHOW CLUSTER METRICS (merged counts must equal node sums), -race.
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke' -v ./internal/distsql/

# Workload-observability smoke: a proxy kernel over two wire-v2 data
# nodes runs a skewed 8-shard storm; SHOW SHARD HEAT must rank the hot
# shard first, SHOW HOT KEYS the hot key, SHOW STATEMENT DIGESTS must
# carry exact counts, and SHOW CLUSTER METRICS must merge the datanodes'
# per-table heat counters to the exact node sum, -race.
digest-smoke:
	$(GO) test -race -run 'TestDigestSmoke' -v ./internal/distsql/

# Paired interleaved overhead measurement for the always-on workload
# plane (digests + heat) on a plan-cached point select. The acceptance
# bar is <2% median overhead. Numbers feed EXPERIMENTS.md.
bench-digest:
	$(GO) test -run 'TestDigestOverheadInterleaved' -v -count=1 ./internal/bench/

# Short fuzz pass over the frame reader, row-batch decoder and
# trace-context trailer. `go test` accepts one -fuzz target per
# invocation, hence separate runs.
fuzz-smoke:
	$(GO) test -fuzz 'FuzzReadFrame' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzDecodeRowBatch' -fuzztime 10s -run '^$$' ./internal/protocol/
	$(GO) test -fuzz 'FuzzTraceContext' -fuzztime 10s -run '^$$' ./internal/protocol/

# Multiplexed wire-protocol concurrency suite under the race detector:
# pipelined streams sharing one socket, hung-stream isolation, batch
# semantics and the mux socket budget.
race-pipeline:
	$(GO) test -race -run 'TestPipelinedConcurrency|TestExecBatchPipelined|TestHungStreamDoesNotStallSiblings|TestMuxSocketBudget' \
		./internal/proxy/
