# Convenience targets; everything is plain go tooling underneath.

GO ?= go

.PHONY: build test race vet lint check bench-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the analyzer suite module-wide, then the analyzers' own fixture
# self-tests (multi-package fixtures, fact goldens, loader error paths).
lint:
	$(GO) run ./cmd/tcnlint ./...
	$(GO) test ./internal/lint/...

# check is the full local gate: what CI requires before merge.
check: build vet lint test

# bench-smoke runs every benchmark once — cheap regression/compile coverage
# for the bench suite itself (CI runs this on every push).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz-smoke mirrors the CI fuzz job: every native fuzz target, bounded.
fuzz-smoke:
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzBucketMapping   -fuzztime 10s ./internal/obs/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzHistogramRecord -fuzztime 10s ./internal/obs/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzDWRRAccounting  -fuzztime 10s ./internal/sched/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzWFQAccounting   -fuzztime 10s ./internal/sched/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzMarkProbability -fuzztime 10s ./internal/core/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzREDDecide       -fuzztime 10s ./internal/aqm/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzWheelHeapEquivalence -fuzztime 10s ./internal/sim/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzReadTimeline    -fuzztime 10s ./internal/digest/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzHeldSegments    -fuzztime 10s ./internal/transport/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzShaper          -fuzztime 10s ./internal/fabric/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzParseFolded     -fuzztime 10s ./cmd/tcndiff/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzParseSeriesCSV  -fuzztime 10s ./cmd/tcndiff/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzParseLedgerCounts -fuzztime 10s ./cmd/tcndiff/
