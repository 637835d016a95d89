# Canonical build/test entrypoints. `make test` is the tier-1 gate:
# everything must build, vet clean, and pass the full suite under the
# race detector (the concurrency contract of the System API is part of
# the public surface).

GO ?= go

.PHONY: test build vet race bench bench-check fmt

# The benchmarks recorded in the BENCH_* trajectory (and guarded by
# bench-check): the batched-prediction, plan-alternative, serve-path,
# and simulator hot loops.
BENCH_PATTERN = PredictBatch|PredictorLatency|Serve|Alternatives|Sim

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race -timeout 30m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# race runs only the concurrency-focused suites, for a quick signal.
race:
	$(GO) test -race -count=1 -run 'Concurrent|Parallel|Batch|LRU|Sharded|Admission|Drain|Dispatcher|Feedback|SharedCache|Grid|Flight|Sim' ./...

# bench runs the batched-prediction and serve-path benchmarks with
# allocation reporting and records the parsed results in
# BENCH_batch.json (the BENCH_* trajectory). The raw output goes
# through a temp file so a failing bench run aborts before clobbering
# the trajectory.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . ./internal/serve/ ./internal/sim/ > bench.out \
		|| { cat bench.out; rm -f bench.out; exit 1; }
	cat bench.out
	$(GO) run ./internal/tools/benchjson < bench.out > BENCH_batch.json.tmp \
		|| { rm -f bench.out BENCH_batch.json.tmp; exit 1; }
	mv BENCH_batch.json.tmp BENCH_batch.json
	rm bench.out

# bench-check reruns the benchmarks and fails if any benchmark's
# throughput fell more than 25% below the committed BENCH_batch.json
# trajectory (benchjson -compare). Absolute ns/op are hardware-sensitive,
# so treat failures on unfamiliar machines as a prompt to re-record with
# `make bench`; in CI (same runner class run to run) the gate catches
# large structural regressions.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . ./internal/serve/ ./internal/sim/ > bench-check.out \
		|| { cat bench-check.out; rm -f bench-check.out; exit 1; }
	$(GO) run ./internal/tools/benchjson -compare BENCH_batch.json < bench-check.out > /dev/null \
		|| { cat bench-check.out; rm -f bench-check.out; exit 1; }
	rm bench-check.out

fmt:
	gofmt -l -w .
