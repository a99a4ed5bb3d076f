# Tier-1 verify is `make check` (build + vet + test); `make test-race`
# additionally runs the packages with real concurrency under the race
# detector. `make bench` is the one yardstick: the pipeline benchmark in
# bench/ (declared in BENCHMARK.json; bench/README.md says how to read and
# compare its numbers), every workload or just W=<name>. `make bench-all`
# runs every Go benchmark once: the paper's tables and figures, the
# per-package micro-benchmarks, and the four within-run ratio floors that
# fail their benchmark when broken — standing views >= 10x polling
# (BenchmarkSubscribe), WAL'd ingest >= 0.8x in-memory (BenchmarkWALIngest),
# streaming >= 0.9x pre-materialized batches (BenchmarkFlowSource), Flowtree
# AddBatch >= 2x per-record Add (BenchmarkAddBatch). `make
# fuzz-smoke` gives the record, tree-wire, tree-delta, disk-segment and
# FlowQL-statement decoders a short corpus-guided fuzz run; `make cover`
# writes cover.out and prints per-package and total statement coverage.

GO ?= go

.PHONY: all build vet test test-race bench bench-all check cover fuzz-smoke

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

# The pipeline benchmark, seed 1, one result-JSON line per workload. Each
# run also checks conservation, byte-equal answers and replay == real run,
# and exits non-zero without metrics when one fails.
W ?= ingest_line_rate query_warm query_cold live_mixed fleet_epochs
bench:
	for w in $(W); do $(GO) run ./bench -workload $$w -seed 1 || exit 1; done

# Every Go benchmark in the repo, one iteration each.
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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
