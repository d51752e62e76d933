# ampsched — build, test and reproduce targets.

GO ?= go

.PHONY: all build vet ampvet analyze lint test test-short test-race test-perfbench bench bench-snapshot bench-check serve-smoke chaos-smoke fleet-smoke nxm-smoke experiments experiments-paper paperscale repro-check fuzz fuzz-fault fuzz-wal fuzz-engine clean

all: build lint test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (internal/analysis via cmd/ampvet):
# determinism, hotpathalloc, obserrcheck, plus the dataflow-aware
# lockcheck, unitcheck and ctxcheck; the full suite also reports stale
# //ampvet:allow directives. Every run analyzes the whole tree afresh.
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

# The microbenchmarks BENCH_micro.json pins, 33 rows in five packages:
# the simulation engines, the dual-core run loop and the §V profiling
# pass, one core's cycle and instruction synthesis (root package); the
# pair store's key hashing and warm lookups; the queue round trip; the
# N×M scheduler's off-quantum gate and epochs; the fleet's ring lookup,
# routing key and peer result fetch. They run with the collector off:
# a collection clears sync.Pools (the runner pools its run state) and
# refilling one allocates, so with it on allocs/op follow GC timing.
# go test runs the packages' benchmarks one after another, each binary
# peaking at up to about 0.5 GB RSS (pair store, cluster): garbage is
# never collected, so the peak grows with the rows' iteration counts.
MICROBENCH = GOGC=off $(GO) test -run NONE -benchmem \
	-bench '^Benchmark(Engine|DualCoreSystem|ProfileCollect|CoreSimulation|WorkloadGenerator|ServerCache|QueueSubmitComplete|ManycoreTickGate|ManycoreEpoch|Cluster)' \
	. ./internal/pairstore ./internal/jobqueue ./internal/manycore ./internal/cluster

# Re-record the committed baseline BENCH_micro.json.
bench-snapshot:
	$(MICROBENCH) | $(GO) run ./cmd/benchsnap -o BENCH_micro.json

# Regression gate against BENCH_micro.json, the same locally and in
# CI: fails on any row's allocs/op increase or a baseline row the run
# no longer produces; prints rows past +10% ns/op without failing.
bench-check:
	$(MICROBENCH) | $(GO) run ./cmd/benchsnap -compare BENCH_micro.json

# End-to-end service smoke: boot ampserve on an ephemeral port with two
# workers and one pending slot, drive it with amploadgen (4 concurrent
# sweep jobs exercising the cache, more than the server holds, so the
# depth bound answers some submissions 429), then SIGTERM it and
# require a clean drain (exit 0). The summary must read 12 completed,
# 0 failed and at least one rejection retried.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/ampserve ./cmd/amploadgen; \
	"$$tmp/ampserve" -addr 127.0.0.1:0 -addrfile "$$tmp/addr" -workers 2 -queuecap 1 \
		-limit 200000 -contextswitch 20000 -profilelimit 100000 \
		-fidelity interval -cachedir "$$tmp/cache" >"$$tmp/server.log" 2>&1 & \
	srv=$$!; \
	bound=0; for i in $$(seq 1 100); do [ -f "$$tmp/addr" ] && { bound=1; break; }; sleep 0.1; done; \
	if [ $$bound -ne 1 ]; then echo "ampserve never bound:"; cat "$$tmp/server.log"; kill $$srv 2>/dev/null; exit 1; fi; \
	set +e; \
	"$$tmp/amploadgen" -addr "$$(cat $$tmp/addr)" -jobs 12 -concurrency 4 -pairs 2 -distinct 3 -report-shed >"$$tmp/load.out" 2>&1; \
	lg=$$?; \
	cat "$$tmp/load.out"; \
	kill -TERM $$srv; wait $$srv; srvexit=$$?; \
	echo "amploadgen exit=$$lg ampserve exit=$$srvexit"; \
	if [ $$lg -ne 0 ] || [ $$srvexit -ne 0 ]; then cat "$$tmp/server.log"; exit 1; fi; \
	retried=$$(sed -n 's/^jobs: *12 completed, 0 failed, \([0-9][0-9]*\) rejections retried$$/\1/p' "$$tmp/load.out"); \
	if [ -z "$$retried" ] || [ "$$retried" -lt 1 ]; then \
		echo "serve-smoke: want 12 completed, 0 failed and at least one rejection retried"; exit 1; fi

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

# Regenerate the committed results files and fail on any difference
# but the wall-clock "# total elapsed" line: fig7full at paper scale on
# the sampled engine (under a minute on 2 CPUs), then every default
# section (9-10 min). Prints its own wall time.
repro-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	start=$$(date +%s); \
	$(GO) build -o "$$tmp/" ./cmd/ampexperiments; \
	"$$tmp/ampexperiments" -run fig7full -fidelity sampled >"$$tmp/results_fig7full.txt"; \
	"$$tmp/ampexperiments" >"$$tmp/results_experiments.txt"; \
	status=0; \
	for f in results_fig7full.txt results_experiments.txt; do \
		grep -v '^# total elapsed' "$$f" >"$$tmp/$$f.want"; \
		grep -v '^# total elapsed' "$$tmp/$$f" >"$$tmp/$$f.got"; \
		if diff -u "$$tmp/$$f.want" "$$tmp/$$f.got"; then echo "repro-check: $$f matches"; \
		else echo "repro-check: FAIL: $$f differs from the committed file"; status=1; fi; \
	done; \
	echo "repro-check wall time: $$(( $$(date +%s) - start )) s"; \
	exit $$status

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
# interval and sampled engines' Stats, the thread's state and the
# carried fraction exactly where n one-window calls leave them. Then
# fuzz the run loop against its window-by-window reference: random
# pairs, policies, fidelities, fault plans, swap overheads, timelines,
# cycle budgets and cancellation points must give identical records.
fuzz-engine:
	$(GO) test ./internal/interval -fuzz FuzzRunSpan -fuzztime 30s
	$(GO) test ./internal/amp -fuzz FuzzReferenceLoop -fuzztime 30s

clean:
	$(GO) clean ./...
