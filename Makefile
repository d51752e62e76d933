# ampsched — build, test and reproduce targets.

GO ?= go

.PHONY: all build vet ampvet analyze lint lint-bench test test-short test-race test-perfbench bench bench-snapshot bench-core bench-check bench-core-check bench-server bench-server-check bench-manycore bench-manycore-check bench-fleet bench-fleet-check serve-smoke chaos-smoke fleet-smoke nxm-smoke experiments experiments-paper paperscale fuzz fuzz-fault fuzz-wal fuzz-engine clean

all: build lint test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (internal/analysis via cmd/ampvet):
# determinism, hotpathalloc, obserrcheck, plus the dataflow-aware
# lockcheck, unitcheck and ctxcheck; the full suite also reports stale
# //ampvet:allow directives. Findings are cached per package content
# hash; use -nocache to force a full re-analysis.
ampvet:
	$(GO) run ./cmd/ampvet ./...

# Machine-readable findings for CI annotation / dashboards.
analyze:
	$(GO) run ./cmd/ampvet -json ./...

# Static gate: vet, gofmt (fails listing any unformatted file), then
# the ampvet suite.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/ampvet ./...

# Time the analyzer suite over ./... cold (findings cache disabled) and
# warm (second cached run) — the numbers recorded in EXPERIMENTS.md.
lint-bench:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/ampvet" ./cmd/ampvet; \
	t0=$$(date +%s%N); "$$tmp/ampvet" -nocache ./... >/dev/null; t1=$$(date +%s%N); \
	echo "ampvet cold (no cache):      $$(( (t1 - t0) / 1000000 )) ms"; \
	"$$tmp/ampvet" -cachedir "$$tmp/cache" ./... >/dev/null; \
	t0=$$(date +%s%N); "$$tmp/ampvet" -cachedir "$$tmp/cache" ./... >/dev/null; t1=$$(date +%s%N); \
	echo "ampvet warm (cache all-hit): $$(( (t1 - t0) / 1000000 )) ms"

test:
	$(GO) test ./...

# The benchmark driver is its own module (perfbench/go.mod replaces
# ampsched with ../), so the root ./... patterns never build it: vet
# and test it explicitly against the current tree.
test-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detect the short suite (exercises the parallel pair sweep).
test-race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable snapshot of the substrate microbenchmarks (one
# core's cycle, instruction synthesis), written to BENCH_telemetry.json.
bench-snapshot:
	$(GO) test -run NONE -bench 'BenchmarkCoreSimulation|BenchmarkWorkloadGenerator' -benchmem . \
		| $(GO) run ./cmd/benchsnap -o BENCH_telemetry.json

# The simulation-engine benchmarks: detailed vs interval vs sampled
# hot loops, the dual-core run loop (one cycle under the proposed
# scheduler, and paper-quantum pair runs per policy), and the §V
# profiling pass that runs the detailed core.
BENCH_CORE = 'BenchmarkEngine|BenchmarkDualCoreSystem|BenchmarkProfileCollect'

# The engine benchmarks run with the collector off: a collection
# clears sync.Pools (the runner pools its run state) and refilling one
# allocates, so with it on the sampled rows' allocs/op follow GC
# timing. The bench process then peaks at about 36 MB RSS (14 MB with
# the collector on).
BENCH_CORE_GO = GOGC=off $(GO)

# Snapshot the engine benchmarks into the committed baseline
# BENCH_core.json.
bench-core:
	$(BENCH_CORE_GO) test -run NONE -bench $(BENCH_CORE) -benchmem . \
		| $(GO) run ./cmd/benchsnap -o BENCH_core.json

# Regression gate: rerun the engine benchmarks and compare against the
# committed baseline (fails past +10% ns/op, any allocs/op increase or
# a baseline row the run no longer produces).
bench-check:
	$(BENCH_CORE_GO) test -run NONE -bench $(BENCH_CORE) -benchmem . \
		| $(GO) run ./cmd/benchsnap -compare BENCH_core.json

# CI form of the engine gate: the interval-fidelity rows' allocs/op
# counts and presence hard-fail (the zero-alloc pooled-run guarantees
# live there), while ns/op drift and the other rows stay advisory — CI
# machines are too noisy for a hard ns gate.
bench-core-check:
	$(BENCH_CORE_GO) test -run NONE -bench $(BENCH_CORE) -benchmem . \
		| $(GO) run ./cmd/benchsnap -compare BENCH_core.json -hard-allocs 'Interval'

# Snapshot the service hot-path benchmarks (pair-store key hashing,
# warm cache lookups, queue round trip) into BENCH_server.json.
bench-server:
	$(GO) test -run NONE -bench 'BenchmarkServerCache|BenchmarkQueueSubmitComplete' -benchmem ./internal/pairstore ./internal/jobqueue \
		| $(GO) run ./cmd/benchsnap -o BENCH_server.json

# Regression gate for the service hot paths against the committed
# baseline (fails past +10% ns/op or any allocs/op increase).
bench-server-check:
	$(GO) test -run NONE -bench 'BenchmarkServerCache|BenchmarkQueueSubmitComplete' -benchmem ./internal/pairstore ./internal/jobqueue \
		| $(GO) run ./cmd/benchsnap -compare BENCH_server.json

# Snapshot the N×M scheduler decision-loop benchmarks (O(1) off-quantum
# gate, full-epoch cost at 64x512 and 256x2048) into BENCH_manycore.json.
bench-manycore:
	$(GO) test -run NONE -bench 'BenchmarkManycore' -benchmem ./internal/manycore \
		| $(GO) run ./cmd/benchsnap -o BENCH_manycore.json

# Regression gate for the N×M decision loop against the committed
# baseline. The off-quantum gate rows sit near timer granularity
# (~2 ns/op), so the ns gate is widened to 25%; that still catches any
# complexity regression (orders of magnitude) and allocs/op increases
# are rejected unconditionally.
bench-manycore-check:
	$(GO) test -run NONE -bench 'BenchmarkManycore' -benchmem ./internal/manycore \
		| $(GO) run ./cmd/benchsnap -compare BENCH_manycore.json -threshold 25

# Snapshot the cluster hot-path benchmarks (ring lookup, job routing
# key, two-node forward round trip) into BENCH_fleet.json.
bench-fleet:
	$(GO) test -run NONE -bench 'BenchmarkCluster' -benchmem ./internal/cluster \
		| $(GO) run ./cmd/benchsnap -o BENCH_fleet.json

# Regression gate for the cluster hot paths against the committed
# baseline. The peer result fetch goes through real loopback HTTP, so
# the ns gate is widened to 25%; allocs/op still hard-fails.
bench-fleet-check:
	$(GO) test -run NONE -bench 'BenchmarkCluster' -benchmem ./internal/cluster \
		| $(GO) run ./cmd/benchsnap -compare BENCH_fleet.json -threshold 25

# End-to-end service smoke: boot ampserve on an ephemeral port, drive
# it with amploadgen (4 concurrent sweep jobs exercising the cache),
# then SIGTERM it and require a clean drain (exit 0).
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/ampserve ./cmd/amploadgen; \
	"$$tmp/ampserve" -addr 127.0.0.1:0 -addrfile "$$tmp/addr" \
		-limit 200000 -contextswitch 20000 -profilelimit 100000 \
		-fidelity interval -cachedir "$$tmp/cache" >"$$tmp/server.log" 2>&1 & \
	srv=$$!; \
	bound=0; for i in $$(seq 1 100); do [ -f "$$tmp/addr" ] && { bound=1; break; }; sleep 0.1; done; \
	if [ $$bound -ne 1 ]; then echo "ampserve never bound:"; cat "$$tmp/server.log"; kill $$srv 2>/dev/null; exit 1; fi; \
	set +e; \
	"$$tmp/amploadgen" -addr "$$(cat $$tmp/addr)" -jobs 12 -concurrency 4 -pairs 2 -distinct 3; \
	lg=$$?; \
	kill -TERM $$srv; wait $$srv; srvexit=$$?; \
	echo "amploadgen exit=$$lg ampserve exit=$$srvexit"; \
	if [ $$lg -ne 0 ] || [ $$srvexit -ne 0 ]; then cat "$$tmp/server.log"; exit 1; fi

# Crash-safety gate: ampchaos boots ampserve under service fault
# injection, SIGKILLs it mid-load, restarts it on the same journal and
# cache, and requires every acknowledged job to resolve with results
# byte-identical to a pristine fault-free run (see cmd/ampchaos).
chaos-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/ampserve ./cmd/ampchaos; \
	"$$tmp/ampchaos" -ampserve "$$tmp/ampserve" -workdir "$$tmp/work"

# Distributed-mode gate: ampfleet boots a 3-node fleet, sprays skewed
# load across it (forwarding + cross-node singleflight must fire),
# SIGKILLs one node mid-run, and requires the survivors to re-route,
# drain cleanly, and match a single-node oracle byte-for-byte (see
# cmd/ampfleet).
fleet-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/ampserve ./cmd/ampfleet; \
	"$$tmp/ampfleet" -ampserve "$$tmp/ampserve" -workdir "$$tmp/work"

# N×M scaling smoke: the nxm sweep at 64x512 and 256x2048 under the
# sampled engine must complete (~20s) — guards the incremental decision
# loop and the big topologies against wedging or blowing up in cost.
# The 10k-cycle quantum gives 10 epochs in the horizon, enough for
# Rank's 5-epoch vote, so the target also fails when no thread changes
# flavor class. Rank and its HPE variant differ only in how they score
# a thread, so without a class flip they make the same moves and their
# columns read alike on every row (1.000 each when nothing moves at
# all, the time-sharing cost alone when only the share rotation does).
nxm-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/ampexperiments -run nxm -fidelity sampled \
		-nxmcores 64,256 -nxmcycles 100000 -nxmquantum 10000 -v >"$$tmp/out"; \
	cat "$$tmp/out"; \
	awk '$$4 == "abs" { rows++; if ($$6 != $$7) flips++ } \
		END { if (rows == 0 || flips == 0) { print "nxm-smoke: FAIL: rank and hpe read alike on every row: no thread changed flavor class"; exit 1 } }' "$$tmp/out"

# Regenerate every table and figure of the paper (minutes).
experiments:
	$(GO) run ./cmd/ampexperiments -v

# Publication-scale parameters (hours of CPU).
experiments-paper:
	$(GO) run ./cmd/ampexperiments -paper -v

# Fig. 7 at the paper's actual scale (80 pairs x 500M instructions) in
# minutes, via the two-tier sampled engine.
paperscale:
	$(GO) run ./cmd/ampexperiments -run fig7full -fidelity sampled -v

fuzz:
	$(GO) test ./internal/trace -fuzz FuzzRead -fuzztime 30s

# Fuzz the fault plan's determinism invariant (same seed, same faults).
fuzz-fault:
	$(GO) test ./internal/fault -fuzz FuzzFaultPlan -fuzztime 30s

# Fuzz journal replay: arbitrary segment bytes must never panic, and
# every record replay yields must round-trip through appendFrame.
fuzz-wal:
	$(GO) test ./internal/wal -fuzz FuzzReplayBody -fuzztime 30s

# Fuzz the engine span contract: one Run(now, w, n) call must leave the
# interval and sampled engines' Stats and the thread's state exactly
# where n one-window calls leave them.
fuzz-engine:
	$(GO) test ./internal/interval -fuzz FuzzRunSpan -fuzztime 30s

clean:
	$(GO) clean ./...
