# Canonical build/test entrypoints. `make test` is the tier-1 gate:
# everything must build, vet clean, and pass the full suite under the
# race detector (the concurrency contract of the System API is part of
# the public surface).

GO ?= go

.PHONY: test build vet race fmt

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race -timeout 30m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# race runs only the concurrency-focused suites, for a quick signal.
race:
	$(GO) test -race -count=1 -run 'Concurrent|Parallel|Batch|LRU|Sharded|Admission|Drain|Dispatcher|Feedback|SharedCache|Grid|Flight|Sim' ./...

fmt:
	gofmt -l -w .
