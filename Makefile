# Standard development entry points. `make check` is what CI (and the
# pre-commit habit) should run: vet, lint, build, full test suite under the
# race detector, and a one-iteration smoke of every benchmark. `lint`
# runs mcsdlint, the repo's own analyzer suite (internal/lint): share-I/O
# discipline, wire-error wrapping, context propagation, metric-name
# registry, sim determinism, goroutine lifecycle, lock discipline, channel
# bounds and dead exported surface — see DESIGN.md §5d for the invariants.
# `perf` is the one performance harness (cmd/perfbench, BENCHMARK.json).

GO ?= go

.PHONY: all vet lint lint-new build test race bench-smoke fuzz-smoke perf perf-smoke chaos chaos-heal flake examples check

all: check

vet:
	$(GO) vet ./...

# lint runs the mcsdlint analyzer suite over the whole module. Zero
# diagnostics is the merge bar; suppressions need a stated reason
# (//mcsdlint:allow ... -- why) and are themselves linted — including
# allows whose analyzer runs but no longer suppresses anything.
lint:
	$(GO) run ./cmd/mcsdlint

# lint-new runs just the concurrency-safety analyzers (DESIGN.md §5i) —
# goroutine lifecycle, lock discipline, channel bounds — plus their
# fixture tests, for a fast signal while working on concurrent code.
lint-new:
	$(GO) run ./cmd/mcsdlint -run 'goroleak|lockhold|chanbound'
	$(GO) test -run 'TestGoRoLeak|TestLockHold|TestChanBound|TestAllowHygiene' ./internal/lint/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke runs every benchmark for a single iteration in short mode —
# it catches bit-rotted benchmark code without paying for real measurement.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# fuzz-smoke runs every Fuzz* target in the module for FUZZTIME each. A
# plain `go test` only replays the seed corpora; this actually mutates. The
# targets are discovered with `go test -list`, so a new one needs no edit
# here. A failing input lands in that package's testdata/fuzz.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

# chaos runs the crash/restart fault-injection tests (DESIGN.md §5c, §5j)
# repeatedly and under the race detector: a daemon is killed mid-batch
# under torn-write and transient-error injection and must deliver exactly
# one response per request after restart; log compaction must lose no
# request when a host append races it, when the node crashes at any of its
# share operations, or when it drops a response a waiter never read; and
# a torn append that keeps all of a record but its final newline must
# still run once and answer once.
chaos:
	$(GO) test -run TestChaos -count=10 -v .
	$(GO) test -race -run TestChaos -count=3 .

# chaos-heal runs the replication/self-healing chaos test (DESIGN.md §5h)
# repeatedly and under the race detector: one SD daemon is killed mid-job
# while another node's replica of a victim-held object carries an at-rest
# bit flip. The word count must stay byte-identical to a single-node run,
# the killed node must rejoin through the probe/probation path, and a scrub
# afterwards must restore full replication (second pass: zero repairs).
chaos-heal:
	$(GO) test -run TestChaosHeal -count=10 -v .
	$(GO) test -race -run TestChaosHeal -count=3 .

# flake loops the host's response router and the chaos suites under the
# race detector, FLAKE_COUNT times each (CI runs a short count). The router
# notify-driven: the stream, its inline payloads, reassembly, size probe
# and fallbacks (fleet word counts whose bundle answers must all ride their
# notifies, at a one-second and at the default 25 ms router tick,
# included), responses longer than the router's scan buffer. The router
# tick-driven on a share that cannot push: the smartfam invocation tests,
# compaction under a live reader, pushless callers sharing one reader, and
# the push/poll differential. Beyond the router: daemon shutdown joins, the
# probe's heartbeat memo, the fleet's corrupt-replica fallback, late-answer
# drop and no-median speculation rule, the scheduler's memory admission,
# the daemon's shed path driven through the fleet's same-node requeue, the
# nfs pipeline's disconnect handling, the partition driver's
# memory-bounded fragment pool, cancellation and recycled fragment
# buffers (poisoned on recycle, under every workload), the engine's pooled
# value runs (poisoned on recycle, one-task runs included) and map
# retries (a streaming-combine attempt that fails after emitting, and
# every task of a two-worker run failing once after emitting, with and
# without a combiner; one-task runs of every workload against multi-worker
# and sequential ones), and
# group commit: its batch edges (a torn response or request batch, a
# recovery re-run answered before the first drain) and its timer-free
# trigger (the leader's yield, and a 512-caller burst over the modelled
# link that must still batch). And the daemon's one reader: push, sweep and no-stream
# ticks (a sweep that rides out share faults, a live stream that drops
# every notify, an idle tick's share-operation bound). And log compaction,
# one conditional replace: under traffic in the push/poll differential,
# against a racing append, a crash at every compactor share operation and
# a compacted-away waiter (the TestChaos compaction tests), and the
# router's two-round-trip arm. And word count's per-job tables: the fold
# of overlapping tables, a lone fragment spread over two tables,
# cancellation over an endless file, and string match's sample order
# across runs. And the nfs stream reader: its wire count (no Stat, nothing
# asked past the end), open-to-EOF latency over a delayed link, empty,
# missing and chunk-edge files, and a file that grows mid-stream. A tier-1
# test that
# fails one run in fifty here is a bug, not noise.
FLAKE_COUNT ?= 50
FLAKE_TESTS = TestFamPush|TestInvoke|TestDaemonSurvivesCompaction|TestPushlessCallersShareOneReader|TestFamPushLargeResponse|TestSmartFAMOverNFS|TestChaos|TestFleetWordCountRidesTheNotify|TestFleetWordCountRidesTheNotifyAtSafetyTick|TestFleetWordCountDropsLateBundleAnswer|TestExecuteNoSpeculationWithoutMedian|TestDaemonStampsHeartbeat|TestWatch|TestRouter|TestProbeHeartbeatMemo|TestExecuteCorruptReplica|TestMemoryAdmissionSerializesBigJobs|TestIntegrationRequeueAfterShed|TestPipelineDisconnect|TestRunPoolFitsMemoryBudget|TestRunPartitionedBeatsMemoryWall|TestRunCancel|TestDaemonTornResponseBatchLandsEachOnce|TestDaemonRecoveryRerunAnsweredOnce|TestClientTornRequestBatchRunsEachOnce|TestGroupCommitYieldGathersRunnableCallers|TestFamBurstKeepsBatching|TestDaemonSweepRidesOutShareFaults|TestDaemonSweepServesDroppedNotify|TestDaemonIdleSweepShareOps|TestRunRecycledFragmentsPoisoned|TestPooledBuffersPoisonedOnRecycle|TestRunStreamingCombineRetryIdempotent|TestRunMultiTaskRetryIdempotent|TestOneTaskRunMatchesParallel|TestWordTableFold|TestWordCountJobSpreadsPoolOfOne|TestWordCountModulePoolOfOne|TestWordCountModuleCancel|TestStringMatchModuleSampleDeterministic|TestStream|TestRangeChainOpensNextOffReadPath|TestRunLastFragmentOnEveryWorker|TestStringMatchModuleLastFragmentInFileOrder
flake:
	$(GO) test -race -count=$(FLAKE_COUNT) -run '$(FLAKE_TESTS)' . ./internal/nfs ./internal/smartfam ./internal/fleet ./internal/sched ./internal/partition ./internal/mapreduce ./internal/workloads ./internal/core

# examples runs every program under examples/ end to end (a few seconds in
# all); each verifies its own result and exits non-zero on any failure.
examples:
	@set -e; for ex in examples/*/; do \
		echo "examples: $$ex"; \
		$(GO) run ./$$ex > /dev/null; \
	done

# perf runs the repository benchmark BENCHMARK.json declares: the four
# perfbench workloads (invoke_open, offload_mix, hostpull_wc, fleet_wc) over
# the modelled 1 GbE + 10 ms link at full length, every result verified.
# The exit status is non-zero unless every operation of every workload
# verified (cmd/perfbench/README.md).
perf:
	$(GO) run ./cmd/perfbench -workload all

# perf-smoke is the same run at 2 s per workload: long enough to drive every
# layer and verify every result, too short to quote a number from.
perf-smoke:
	$(GO) run ./cmd/perfbench -workload all -seconds 2

check: vet lint build race bench-smoke
