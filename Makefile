# Standard development entry points. `make check` is what CI (and the
# pre-commit habit) should run: vet, lint, build, full test suite under the
# race detector, and a short-mode smoke of the engine benchmarks. `lint`
# runs mcsdlint, the repo's own analyzer suite (internal/lint): share-I/O
# discipline, wire-error wrapping, context propagation, metric-name
# registry, and sim determinism — see DESIGN.md §5d for the invariants.

GO ?= go

.PHONY: all vet lint lint-new build test race bench-smoke bench-json bench-nfs bench-cluster bench-fam bench-compare perf perf-smoke chaos chaos-heal flake check

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

# chaos runs the crash/restart fault-injection test (DESIGN.md §5c)
# repeatedly and under the race detector: a daemon is killed mid-batch
# under torn-write and transient-error injection and must deliver exactly
# one response per request after restart.
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

# flake loops the push front door and the chaos suites under the race
# detector, FLAKE_COUNT times each (CI runs a short count): the notify
# stream, its inline payloads and fallbacks, the push/poll differential,
# daemon shutdown joins and the heartbeat memo. A tier-1 test that fails
# one run in fifty here is a bug, not noise.
FLAKE_COUNT ?= 50
FLAKE_TESTS = TestFamPush|TestSmartFAMOverNFS|TestChaos|TestDaemonStampsHeartbeat|TestWatch|TestRouter|TestPickHeartbeatMemo
flake:
	$(GO) test -race -count=$(FLAKE_COUNT) -run '$(FLAKE_TESTS)' . ./internal/nfs ./internal/smartfam ./internal/core

# bench-json regenerates BENCH_mapreduce.json: the engine hot-path numbers
# across the GOMAXPROCS sweep (zero-copy streaming combine vs staged emit,
# the k-adaptive merge vs its forced strategies, parallel vs sequential
# partition driver) plus the acceptance targets vs the pre-overhaul
# baseline. Commit the regenerated file; bench-compare gates against it.
bench-json:
	$(GO) run ./cmd/mcsd-bench -engine -engine-out BENCH_mapreduce.json

# bench-compare is the engine-performance regression gate: re-measure the
# engine hot paths on this machine and compare against the committed
# BENCH_mapreduce.json, failing on >10% throughput loss (ns/op rise for
# rows without a MB/s figure) or >20% allocs/op growth per matched
# (benchmark, gomaxprocs) row. Improvements never fail; regenerate the
# committed file with bench-json when numbers legitimately move.
bench-compare:
	$(GO) run ./cmd/mcsd-bench -engine -engine-out /tmp/bench-new.json
	$(GO) run ./cmd/mcsd-bench -compare BENCH_mapreduce.json /tmp/bench-new.json

# bench-nfs regenerates BENCH_nfs.json: the NFS data-path numbers over a
# modelled 1 GbE link with propagation delay — pipelined vs serial
# sequential read, random reads, staged vs per-RPC append, and the block
# cache's warm/cold split. The run fails if the acceptance gates regress
# (pipelined >= 2x serial; warm cache reads move zero data bytes).
bench-nfs:
	$(GO) run ./cmd/mcsd-bench -nfs -nfs-out BENCH_nfs.json

# bench-cluster regenerates BENCH_cluster.json: the multi-SD scale-out
# numbers — a fleet word count scattered over N=1/2/4/8 in-process SD nodes,
# each reading through a bandwidth-limited self-mount standing in for its
# local disk, gathered and merged by the host over a modelled 1 GbE link.
# The run fails if the near-linear-speedup gates regress (>= 1.7x at N=2,
# >= 3.0x at N=4) or if any merged output differs from the N=1 bytes.
bench-cluster:
	$(GO) run ./cmd/mcsd-bench -cluster -cluster-out BENCH_cluster.json

# bench-fam regenerates BENCH_fam.json: the fam v2 invocation front-door
# numbers — the same concurrent echo invocations over the same modelled
# 1 GbE + 10 ms link, once through the classic append-then-poll path and
# once through push notify + group commit. The run fails if the acceptance
# gates regress (push >= 10x polling throughput; push p99 <= 3x the 20 ms
# RTT).
bench-fam:
	$(GO) run ./cmd/mcsd-bench -fam -fam-out BENCH_fam.json

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
