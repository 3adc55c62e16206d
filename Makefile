# LiveNet reproduction — build/test/bench entry points.
#
#   make ci         # what a PR must pass: vet + build + race-enabled tests + chaos smoke + docs gate
#   make race-brain # Brain/federation/graph under -race -count=3: routing rounds run beside lookups (part of make ci)
#   make test       # plain test run (fastest)
#   make bench      # allocation + throughput benchmark smoke (short benchtime)
#   make bench-smoke # routing/perf suite, one iteration each (part of make ci)
#   make bench-routing # cold/warm routing-epoch suite incl. the N=2000 point, one iteration each
#   make bench-shard # federated-Brain epoch benchmarks, one iteration each
#   make bench-check # hot-path alloc regression guard vs BENCH_12.json (part of make ci)
#   make bench-build # vet, gofmt and -short tests of the frozen bench/ module (part of make ci)
#   make bench-json # perfbench suite -> BENCH_12.json snapshot (minutes)
#   make lab-smoke  # three udprun nodes on loopback: median frame delay over three hops <= 3 ms (part of make ci)
#   make quick      # scaled-down end-to-end evaluation report
#   make macro-1m   # cohort-engine scale smoke: quarter-million-viewer macro pair
#   make chaos      # fault-tolerance evaluation (deterministic fault injection)
#   make chaos-migrate # planned-reconfiguration gate: rolling restart adds zero stalls
#   make telemetry  # observability report: journey waterfalls + Brain GlobalView
#   make docs       # docs-freshness gate: every registered metric documented
#   make golden     # -quick -no-ablations and -chaos reports vs testdata/*.golden (part of make ci)

GO ?= go

.PHONY: all ci vet build test race race-dataplane race-brain lab-smoke bench bench-smoke bench-routing bench-shard bench-check bench-build bench-json quick macro-1m chaos chaos-migrate telemetry docs golden

all: ci

ci: vet build race race-dataplane race-brain lab-smoke chaos chaos-migrate docs golden bench-smoke bench-check bench-build macro-1m

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel run scheduler and the eval session memo are exercised
# concurrently here; the race detector is the determinism harness's
# second line of defense after the byte-identical-output tests.
race:
	$(GO) test -race ./...

# Data-plane race gate: the sharded receive loops, the batched flush
# path, and the pool-reuse tests all run concurrently; -count=2 shakes
# out scratch-slice reuse across runs.
race-dataplane:
	$(GO) test -race -count=2 ./internal/node/... ./internal/udprun/...

# Control-plane race gate: a routing round plans beside the lookups,
# reports, alarms and drains the Brain keeps serving (TestRoundsBesideServing
# and the ≡-pins); one pass of the whole tree is too thin a net for the
# interleavings, so these three packages run three times.
race-brain:
	$(GO) test -race -count=3 ./internal/brain/... ./internal/brainfed/... ./internal/graph/...

# Loopback smoke: one paced 600 kbit/s stream through three udprun nodes
# for 2 s; fails if the median frame delay over the three hops passes
# 3 ms. A packet its links have budget for leaves a node when it arrives;
# under a fixed 2 ms drain tick the floor was 6 ms, so a tick cannot come
# back unnoticed while a noisy runner still passes.
lab-smoke:
	$(GO) test -run TestLoopbackChainFrameDelay -count=1 -v ./internal/perfbench

# Benchmark smoke: the allocation-diet trio, the transport
# micro-benchmarks, and the telemetry zero-overhead proof (forward path
# allocs/op must not change with the registry enabled).
bench:
	$(GO) test -run xxx -bench 'BenchmarkLoopSchedule|BenchmarkNetemSend|BenchmarkBrainLookup|BenchmarkRTP|BenchmarkNetemThroughput|BenchmarkNodeForward' -benchtime 0.2s .

# Routing/perf suite smoke: the routing-epoch suite plus the data-plane
# and allocation-diet benchmarks, one iteration each.
bench-smoke: bench-shard bench-routing
	$(GO) test -run xxx -bench 'BenchmarkBrainLookup|BenchmarkGraphNeighborWeights|BenchmarkLoopSchedule|BenchmarkNetemSend|BenchmarkNodeForwardFanout|BenchmarkUDPLoopback' -benchtime 1x .

# Routing-epoch smoke: the cold (from-scratch) epochs at N=600 and
# N=2000, the incremental churn round, and the KSP micro-benchmarks —
# proves the arena engine completes a beyond-paper-scale Global Routing
# round (the N=2000 point exists because the pre-arena engine could not).
bench-routing:
	$(GO) test -run xxx -bench 'BenchmarkBrainPaperScale|BenchmarkBrainPaperScale2000|BenchmarkBrainEpochChurn|BenchmarkYenKSPFullMesh|BenchmarkDenseMeshRouting' -benchtime 1x .

# Federated-Brain smoke: the sharded (one Brain per region) epoch and
# churn rounds at the same 600-site scale — proves cross-region stitch
# prefetch completes and reports the per-shard discovery fan-in.
bench-shard:
	$(GO) test -run xxx -bench 'BenchmarkBrainFederatedEpoch|BenchmarkBrainFederatedChurn' -benchtime 1x .

# Perfbench snapshot: run the suite at full benchtime through
# cmd/livenet-bench and write BENCH_12.json. Its ns/op rows compare only
# with rows measured on the same machine the same day.
bench-json:
	$(GO) run ./cmd/livenet-bench -bench-json BENCH_12.json

# Hot-path alloc regression guard: re-run the allocation-diet benchmarks
# and fail if any exceeds its committed BENCH_12.json allocs/op by >10%
# (zero-alloc paths must stay at zero). ns/op is not gated — timing is
# machine-dependent; allocation counts are deterministic.
bench-check:
	$(GO) run ./cmd/livenet-bench -bench-check BENCH_12.json

# The repo benchmark (BENCHMARK.json) is its own Go module under bench/
# that compiles against exported internal/ names; `go build ./...` and
# `go vet ./...` at the root do not see it. This leg fails here, not at
# the benchmark driver, when a change breaks a name it uses.
bench-build:
	bash bench/run.sh check

quick:
	$(GO) run ./cmd/livenet-bench -quick

# Cohort-engine scale smoke (DESIGN.md §11): both systems at a
# quarter-million-viewer diurnal peak through the cohort-aggregated macro
# engine — ~30M represented views per system in seconds. The full
# million-viewer point runs in `make bench-json` (MacroCohort1M).
macro-1m:
	$(GO) run ./cmd/livenet-bench -viewers 250000 -hours 6 -sites 24 -macro-only

# Fault-tolerance smoke: runs the three chaos experiments (relay crash,
# Brain-unreachable cache fallback, Brain-replica outage) end to end; the
# byte-identical replay of the same scenarios is asserted in
# internal/eval/fault_test.go.
chaos:
	$(GO) run ./cmd/livenet-bench -chaos

# Planned-reconfiguration gate: the full-fleet rolling restart must add
# zero stalls for LiveNet (make-before-break drains) while Hier pays a
# positive price, and the drain must converge before every crash.
chaos-migrate:
	$(GO) test -run 'TestRollingRestart' -count=1 -v ./internal/eval

# Observability report: sampled per-packet latency waterfalls plus the
# Brain's GlobalView fleet-health tables (see OBSERVABILITY.md).
telemetry:
	$(GO) run ./cmd/livenet-bench -telemetry

# Docs-freshness gate: fails when a registered metric name is missing
# from OBSERVABILITY.md.
docs:
	$(GO) test -run TestObservabilityDocCoversMetrics -count=1 .

# Behaviour-held gate: regenerates `livenet-bench -quick -no-ablations`
# and `-chaos` in-process and compares them, wall-clock lines aside, with
# testdata/*.golden. A change meant to move them refreshes the files with
# `go test -run TestGoldenReports . -update`.
golden:
	$(GO) test -run TestGoldenReports -count=1 .
