# Canonical build/test entrypoints. `make test` is the tier-1 gate:
# everything must be gofmt-clean, build, vet clean, and pass the full
# suite under the race detector (the concurrency contract of the System
# API is part of the public surface).

GO ?= go

.PHONY: test fmt-check build vet race fmt loc loc-check

test: fmt-check
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race -timeout 30m ./...

# fmt-check fails, listing the files, when gofmt would change any.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# race runs only the concurrency-focused suites, for a quick signal.
race:
	$(GO) test -race -count=1 -run 'Concurrent|Parallel|Batch|LRU|Sharded|Admission|Drain|Dispatcher|Feedback|SharedCache|Grid|Flight|Sim|PassOwnsItsRows|EstimateMemo|PredictionDigestPinned' ./...

fmt:
	gofmt -l -w .

# loc prints the line counts ROADMAP and CHANGES quote: non-test Go
# outside bench/ (the number the roadmap's target is set on), bench/'s
# own non-test Go, and tests.
LIB_GO = git ls-files '*.go' | grep -v _test.go | grep -v '^bench/'
loc:
	@printf 'non-test Go outside bench/: '; $(LIB_GO) | xargs wc -l | tail -1
	@printf 'non-test Go under bench/:   '; git ls-files 'bench/*.go' | grep -v _test.go | xargs wc -l | tail -1
	@printf 'tests:                      '; git ls-files '*_test.go' | xargs wc -l | tail -1

# loc-check keeps the collapse from regrowing silently: non-test Go
# outside bench/ stays within the budget CHANGES.md records, and no
# non-test file outside bench/ grows past 500 lines, except the three
# already over it (FILE_BUDGET_EXEMPT).
LOC_BUDGET = 15473
FILE_BUDGET = 500
FILE_BUDGET_EXEMPT = api.go internal/serve/serve.go internal/sample/subtree.go
loc-check:
	@n="$$($(LIB_GO) | xargs cat | wc -l)"; \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then echo "non-test Go outside bench/: $$n lines, budget $(LOC_BUDGET)"; exit 1; fi
	@for f in $$($(LIB_GO) | grep -vxF $(FILE_BUDGET_EXEMPT:%=-e %)); do \
		n="$$(wc -l < "$$f")"; \
		if [ "$$n" -gt $(FILE_BUDGET) ]; then echo "$$f: $$n lines, budget $(FILE_BUDGET)"; exit 1; fi; \
	done
