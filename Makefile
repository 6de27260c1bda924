# Build / verification entry points. `make ci` is the gate every change
# must pass: compile, gofmt-clean sources, vet, the full test suite under
# the race detector (the parallel experiment pipeline makes -race
# load-bearing), the invariance suite re-run under the legacy switch
# interpreter so both execution tiers stay pinned to the same goldens, and
# one end-to-end pass over every command-line surface.
GO ?= go

# The workload and harness packages run whole experiment grids; under
# -race they need far more than the 10-minute default.
RACE_TIMEOUT ?= 3600s

# Benchmark snapshot lineage: `make bench` writes BENCH_NEXT and
# `make bench-compare` diffs it against BENCH_PREV. Roll both forward when
# a PR lands a new snapshot; earlier snapshots stay in-tree for cross-PR
# comparison.
BENCH_PREV ?= BENCH_4.json
BENCH_NEXT ?= BENCH_5.json

.PHONY: ci build fmt vet test race bench bench-compare smokebench invariance smoke

ci: build fmt vet race invariance smoke smokebench

build:
	$(GO) build ./...

# Fails when any tracked Go file is not gofmt-clean, naming the files.
# Tracked files only: build outputs such as .bench_build/ stay out.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./...

# The golden-pinned suites re-run under SMOKESTACK_EXEC=switch. The plain
# run (block tier, the default) already happens inside `race`, tier
# differentials included; this one makes the legacy interpreter reproduce
# the exact same bytes, so an accelerated-tier bug can never hide behind a
# matching golden regeneration.
invariance:
	SMOKESTACK_EXEC=switch $(GO) test -run 'TestCycleInvariance|TestRecordInvariance' -count=1 .

# End-to-end pass over the command-line surfaces; every test suite these
# commands exercise already runs inside `race`. The fault sweep must exit
# 0 with every failed cell classified (injected), with and without
# telemetry; the metric snapshot must render through benchjson -metrics;
# smokestackd's self-test drives submit → stream → drain plus a traced
# canary detection through the flight recorder and audit log; a span-mode
# fig4 trace must fold through benchjson -tracetree, which exits non-zero
# on any reconciliation mismatch; and the defense matrix renders
# end-to-end.
smoke:
	$(GO) run ./cmd/dopbench -faults > /dev/null
	$(GO) run ./cmd/dopbench -faults -metrics /tmp/smokestack-metrics.json -trace /tmp/smokestack-trace.jsonl > /dev/null
	$(GO) run ./cmd/benchjson -metrics /tmp/smokestack-metrics.json > /dev/null
	$(GO) run ./cmd/smokestackd -addr 127.0.0.1:0 -selftest > /dev/null
	$(GO) run ./cmd/dopbench -exp fig4 -trace /tmp/smokestack-spans.jsonl > /dev/null
	$(GO) run ./cmd/benchjson -tracetree /tmp/smokestack-spans.jsonl > /dev/null
	$(GO) run ./cmd/dopbench -exp defenses -engines cleanstack,shadowstack,stackato > /dev/null

# Full benchmark sweep, snapshotted to $(BENCH_NEXT) (see cmd/benchjson).
# ns/op figures are host-dependent; the sim-instructions/op and
# model-cycles/op metrics are machine-independent modeled quantities.
# Earlier snapshots (BENCH_2.json, ...) are kept for cross-PR comparison.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -o $(BENCH_NEXT)

# Per-benchmark deltas between $(BENCH_PREV) and $(BENCH_NEXT); exits
# non-zero when a metric regresses past the threshold. The gate is scoped
# (-only) to the VM executor benchmarks a dispatch-level change targets:
# snapshots are recorded on whatever host ran `make bench`, and the
# host-bound benchmarks cannot diff meaningfully across machines —
# Table1/rdrand measures the CPU's RDRAND latency (4-16ns depending on
# part), and the attack benchmarks (Pentest/*, CVE/*) spend ~95% of their
# time zeroing a fresh heap per attempt and swing ±40% with host allocator
# state. Within scope, 35% leaves headroom for scheduler noise while a
# genuine dispatch-level regression shows up as 1.5-2x. The -zeroalloc
# gate additionally requires the pooled reset path to report 0 allocs/op
# and 0 B/op in the new snapshot — allocation creep there is a regression
# no matter how small the percentage.
bench-compare:
	$(GO) run ./cmd/benchjson -diff -threshold 35 \
		-only 'VMThroughput|VMWorkloads|MemAccess' \
		-zeroalloc 'RunSetup/reset' $(BENCH_PREV) $(BENCH_NEXT)

# Single-iteration pass over the hot-path benchmarks: catches benchmarks
# that stopped compiling or started failing without paying for steady-state
# timing. Part of `make ci`.
smokebench:
	$(GO) test -bench='VMThroughput|VMWorkloads|MemAccess|Table1|RunSetup' \
		-benchtime=1x -run='^$$' .
