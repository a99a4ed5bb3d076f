# Tier-1 verify is `make check` (build + vet + test); `make test-race`
# additionally runs the concurrent ingest, streaming-source, network
# serving, epoch-export, hierarchy-rollup, federation and durable-storage
# paths under the race detector. `make bench` runs the hot-path benchmarks (Flowtree compression +
# sharded ingest + streaming source + pipelined epoch export + multi-level
# federation); `make bench-compare` re-measures compression throughput,
# epoch-export turnaround, query selection, streaming ingest, federation
# turnaround, WAL'd-ingest overhead, standing-view maintenance and the
# network serving layer and fails on a regression against the checked-in
# BENCH_compress.json / BENCH_epoch.json / BENCH_query.json /
# BENCH_stream.json / BENCH_fed.json / BENCH_durable.json /
# BENCH_subscribe.json / BENCH_serve.json baselines (wall-clock
# experiments get the wider tolerance; the compress and stream gates also
# hold allocs/op and bytes/op flat, and the subscribe gate hard-fails below
# 10x over polling). `make fuzz-smoke` gives the record, tree-wire,
# tree-delta, disk-segment and FlowQL-statement decoders a short
# corpus-guided fuzz run; `make cover` writes cover.out and prints
# per-package and total statement coverage.

GO ?= go

.PHONY: all build vet test test-race bench bench-all bench-baseline bench-compare check cover fuzz-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The sharded ingest pipeline (datastore shards, flowstream fan-in), the
# streaming source feeding it (flowsource bounded channels, storage retention
# rings it races against), the concurrent epoch-export pipeline, the pooled
# hierarchy rollup and the multi-level federation fleet (leaf ingest racing
# rollups, re-ship racing EndEpoch at aggregator hops) with the export hop
# they share (internal/uplink: Export racing Retry), the segmented FlowDB
# (parallel Select merges racing the export writer) with the FlowQL layer
# above it, the durable tier (WAL appends racing epoch seals, spill stores
# racing re-export), and the primitives they drive are the packages with
# real concurrency; the root package carries the integration tests.
test-race:
	$(GO) test -race ./internal/datastore/ ./internal/flowstream/ \
		./internal/flowsource/ ./internal/flowserve/ ./internal/storage/ \
		./internal/storage/disk/ ./internal/storage/diskio/ \
		./internal/flowdb/ ./internal/flowql/ \
		./internal/flowtree/ ./internal/primitive/ \
		./internal/hierarchy/ ./internal/federation/ ./internal/uplink/ .

# Hot-path benchmarks: the sort-based bulk fold vs its heap baseline, bulk
# ingest, structural clone, full-frame and delta decode, the streaming source vs the pre-materialized
# batch path (asserts the >=0.9x envelope), the sharded data-store ingest
# sweep, the serial-vs-pipelined epoch export grid, and the segmented FlowDB
# select/FlowQL grids (cold, memoized, and flat-scan baseline) plus the
# standing-view maintenance path vs cold-Select polling.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCompress|BenchmarkAddBatch|BenchmarkClone|BenchmarkDecode' \
		-benchtime 1x ./internal/flowtree/
	$(GO) test -run '^$$' -bench 'BenchmarkFlowSource|BenchmarkRecordCodec' \
		-benchtime 1x ./internal/flowsource/
	$(GO) test -run '^$$' -bench 'BenchmarkFlowDBSelect|BenchmarkFlowDBInsertBatch|BenchmarkSubscribe|BenchmarkMemoKey' \
		-benchtime 1x ./internal/flowdb/
	$(GO) test -run '^$$' -bench 'BenchmarkFlowQL' -benchtime 1x ./internal/flowql/
	$(GO) test -run '^$$' -bench 'BenchmarkFederation' -benchtime 1x ./internal/federation/
	$(GO) test -run '^$$' -bench 'BenchmarkIngestSharded|BenchmarkEndEpoch' -benchtime 1x .

# Every benchmark in the repo (paper tables and figures included).
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Refresh the perf baselines (run on the reference host).
bench-baseline:
	$(GO) run ./cmd/benchreport -exp compress -out BENCH_compress.json
	$(GO) run ./cmd/benchreport -exp epoch -out BENCH_epoch.json
	$(GO) run ./cmd/benchreport -exp query -out BENCH_query.json
	$(GO) run ./cmd/benchreport -exp stream -out BENCH_stream.json
	$(GO) run ./cmd/benchreport -exp fed -out BENCH_fed.json
	$(GO) run ./cmd/benchreport -exp durable -out BENCH_durable.json
	$(GO) run ./cmd/benchreport -exp subscribe -out BENCH_subscribe.json
	$(GO) run ./cmd/benchreport -exp serve -out BENCH_serve.json

# Guard the perf trajectory: fail when compression throughput, pipelined
# epoch-export turnaround, segmented-select query throughput, streaming
# ingest throughput, federation epoch turnaround or WAL'd ingest throughput
# drops below the checked-in baselines (10% for the CPU-bound fold, 30% for
# the wall-clock paced export/federation and the scheduler- and
# fsync-sensitive query/stream/durable paths), or when the measured
# configurations drift from the baseline (the benchreport binary exits 2
# for drift, which CI treats as a hard failure even where regressions are
# only warnings). The durable experiment additionally hard-fails whenever
# WAL'd ingest falls below 0.8x of the in-memory path, baseline or not, and
# the subscribe experiment hard-fails whenever incremental standing views
# fall below 10x of cold-Select polling at 8 views — that within-run ratio
# is the primary gate, so its baseline compare runs at a wider tolerance
# meant to catch collapse rather than runner jitter. The serve experiment
# likewise hard-fails whenever loopback-socket ingest falls below 25% of
# in-process ingest within the same run.
bench-compare:
	$(GO) run ./cmd/benchreport -exp compress -compare BENCH_compress.json
	$(GO) run ./cmd/benchreport -exp epoch -compare BENCH_epoch.json -tol 0.30
	$(GO) run ./cmd/benchreport -exp query -compare BENCH_query.json -tol 0.30
	$(GO) run ./cmd/benchreport -exp stream -compare BENCH_stream.json -tol 0.30
	$(GO) run ./cmd/benchreport -exp fed -compare BENCH_fed.json -tol 0.30
	$(GO) run ./cmd/benchreport -exp durable -compare BENCH_durable.json -tol 0.30
	$(GO) run ./cmd/benchreport -exp subscribe -compare BENCH_subscribe.json -tol 0.50
	$(GO) run ./cmd/benchreport -exp serve -compare BENCH_serve.json -tol 0.50

# Short corpus-guided fuzz runs of the attacker-facing wire decoders: the
# flowsource record/frame codec, the Flowtree wire (v1/v2) decoder, the
# v3 delta decoder (applied against an adversarial base tree), the
# on-disk segment decoder (which must reject rather than decode damaged
# files) and the FlowQL parser (attacker-facing per Figure 5 step 5).
# Seed corpora are checked in under testdata/fuzz/; CI runs this
# as a smoke job, longer local runs just raise -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowsource/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTree$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowtree/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTreeDelta$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowtree/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/storage/disk/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/flowql/

# Statement coverage: per-package lines plus the repo-wide total, with the
# profile left in cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

check: build vet test
