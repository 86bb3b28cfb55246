GO ?= go
FUZZTIME ?= 10s

# Every fuzz target in the tree, as package:target pairs.
FUZZ_TARGETS := \
	./internal/wire:FuzzDecoder \
	./internal/wire:FuzzReadFrame \
	./internal/wire:FuzzWireFrameV \
	./internal/dad:FuzzDecodeTemplate \
	./internal/dad:FuzzDecodeDescriptor \
	./internal/schedule:FuzzPlanEquivalence \
	./internal/session:FuzzSessionFrame \
	./internal/redist:FuzzRemoteDeliver

.PHONY: all build test race chaos chaos-net fuzz-short vet bench bench-smoke staticcheck govulncheck

all: build test

build:
	$(GO) build ./...

# Shuffled to flush inter-test ordering dependencies; -count=1 defeats the
# test cache so every run actually executes.
test:
	$(GO) test -shuffle=on -count=1 ./...

# The concurrency-heavy packages (comm, transport, faultconn, prmi, core)
# are race-clean; run the whole tree under the detector.
race:
	$(GO) test -race ./...

# The chaos soak: rank-crash and fault-injection survivability tests, under
# the race detector with a hard timeout so a hang fails instead of wedging.
chaos:
	$(GO) test -race -run Chaos -count=1 -timeout 120s ./...

# The network chaos soak: fenced transfers and PRMI calls between worlds
# coupled over real TCP with session-layer reconnection, while the physical
# links flap and, finally, die past the redial budget.
chaos-net:
	$(GO) test -race -run ChaosNet -count=1 -timeout 120s ./internal/chaosnet/

# Run each fuzz target for a short, CI-sized budget. Crash inputs land in
# <pkg>/testdata/fuzz/<Target>/ and become regression seeds.
fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

vet:
	$(GO) vet ./...

# Transfer-engine benchmark report: elems/sec and allocs/op for float64 and
# float32, cached vs uncached schedule, plus the budgeted (MaxBytesInFlight)
# steady state and a HighWater peak-packed-bytes phase. Fails if any cached
# steady-state path (budgeted included) allocates, or if the budgeted high
# water exceeds its bound.
bench:
	$(GO) run ./cmd/redistbench -out BENCH_redist.json

# CI-sized smoke run of the same report (fixed iteration count), with the
# same gates. The report goes outside the checkout, so a smoke run never
# overwrites the committed full-length BENCH_redist.json.
BENCH_SMOKE_OUT ?= $${TMPDIR:-/tmp}/BENCH_redist.smoke.json
bench-smoke:
	$(GO) run ./cmd/redistbench -short -out $(BENCH_SMOKE_OUT)

# Lint/vuln targets degrade to a notice when the tool isn't on PATH, so
# offline checkouts aren't forced to install anything; CI installs both.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
