package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/smartfam"
)

// sizes are the frozen workload parameters. They are part of every result
// file, so two results are comparable only when these agree.
type sizes struct {
	// invoke_open: open-loop arrivals per second, warm-up invocations,
	// the in-flight cap past which an arrival is refused (and failed),
	// and the parameter mix.
	InvokeRate   float64 `json:"invoke_rate_per_s"`
	InvokeWarmup int     `json:"invoke_warmup_ops"`
	InflightCap  int     `json:"invoke_inflight_cap"`
	SmallParam   int     `json:"invoke_small_param_bytes"`
	LargeParam   int     `json:"invoke_large_param_bytes"`
	LargeShare   float64 `json:"invoke_large_param_share"`
	// offload_mix and hostpull_wc: the text and encrypt corpora (each
	// CorpusBytes), the partition size, and the string-match key set.
	CorpusBytes    int64   `json:"corpus_bytes"`
	PartitionBytes int64   `json:"partition_bytes"`
	MatchKeys      int     `json:"match_keys"`
	MatchHitRate   float64 `json:"match_hit_rate"`
	TopN           int     `json:"top_n"`
	// fleet_wc: node count, shared corpus, scatter granularity and each
	// node's modelled disk rate.
	FleetNodes     int     `json:"fleet_nodes"`
	FleetBytes     int64   `json:"fleet_corpus_bytes"`
	FleetFragments int     `json:"fleet_fragments"`
	FleetDiskBps   float64 `json:"fleet_disk_bytes_per_s"`
	// WarmupJobs is how many unmeasured jobs each closed-loop set-up runs.
	WarmupJobs int `json:"warmup_jobs"`
}

var defaultSizes = sizes{
	InvokeRate: 1000, InvokeWarmup: 1000, InflightCap: 1024,
	SmallParam: 64, LargeParam: 4 << 10, LargeShare: 0.10,
	CorpusBytes: 32 << 20, PartitionBytes: 4 << 20, MatchKeys: 8, MatchHitRate: 0.01, TopN: 10,
	FleetNodes: 4, FleetBytes: 8 << 20, FleetFragments: 48, FleetDiskBps: 4e6,
	WarmupJobs: 1,
}

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// setups is how many times the workload is set up; setup_s is the
	// median. The last set-up is the one measured.
	setups int
	// workdir is the scratch root, inside the checkout; every export
	// directory lives below it and is removed before the run returns.
	workdir string
	// traceOut, when set on a traced run, receives the span list.
	traceOut string
	// breakExpected corrupts the reference results once set-up is done, so
	// every measured check must fail; the smoke test uses it to prove a
	// wrong result is counted as a failed operation.
	breakExpected bool
}

// workers is mcsdd's -workers default clamped to the machine: engine
// workers never exceed nproc.
func workers() int {
	if n := runtime.NumCPU(); n < nodeWorkers {
		return n
	}
	return nodeWorkers
}

// env is what a set-up hands the harness: the SD nodes it booted and the
// host-side registries and decorators the layer metrics are read from.
type env struct {
	nodes    []*node
	hostFS   []*timedFS        // host share decorators, traced runs only
	hostReg  *metrics.Registry // smartfam client / core.Runtime counters
	fleetReg *metrics.Registry // fleet.Config.Metrics, fleet_wc only
	hostLink *netsim.Link
	rttMs    float64
}

// share is the host's view of node n's share: the mount itself, or on a
// traced run the mount inside a timing decorator the env keeps for its
// call counts.
func (e *env) share(n *node, tr *tracer) smartfam.FS {
	if tr == nil {
		return n.mount
	}
	fs := &timedFS{inner: n.mount, tr: tr}
	e.hostFS = append(e.hostFS, fs)
	return fs
}

func (e *env) close() {
	for _, n := range e.nodes {
		n.close()
	}
}

// measurement is what one measured phase of a workload returns.
type measurement struct {
	// latMs holds the latency of every operation that completed and
	// verified; attempted-failed == len(latMs).
	latMs      []float64
	attempted  int
	failed     int
	firstFail  string // what went wrong with the first failed operation
	wall       time.Duration
	inputBytes int64 // input bytes the verified operations processed
	// cpuMs samples the process's CPU cost per operation: one sample per
	// operation in the closed loops, one per window of arrivals (divided by
	// the window) in the open loop. process.cpu_ms_per_op is their median,
	// so a burst of collector or neighbour activity moves one sample, not
	// the figure.
	cpuMs []float64
	// layer carries the workload's own layer metrics (all runs report the
	// loadgen validity figures here; the rest only when traced).
	layer map[string]float64
}

// fail counts one failed operation and keeps the first one's reason.
func (m *measurement) fail(why string) {
	if m.failed == 0 {
		m.firstFail = why
	}
	m.failed++
}

// closedLoop is the one caller of the closed-loop workloads: it runs op
// back to back until seconds have passed and keeps the time, the CPU and
// the outcome of each run of it. op performs operation i, checks its
// result and reports whether it verified; whatever else it learns from a
// verified operation it keeps itself. On a traced phase every operation is
// a root span, and traced (nil for none) is told a verified operation's
// bounds so it can hang the workload's own spans below that root.
func closedLoop(tr *tracer, seconds float64, bytesPerOp int64, op func(i int) (bool, error), traced func(i int, t0, t1 time.Time)) *measurement {
	m := &measurement{layer: map[string]float64{}}
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		cpu0, t0 := cpuNow(), time.Now()
		if tr.tracing() {
			tr.beginOp(i, t0)
		}
		ok, err := op(i)
		t1 := time.Now()
		m.attempted++
		if tr.tracing() {
			tr.endOp(t1)
		}
		if err != nil || !ok {
			m.fail(fmt.Sprintf("operation %d: verified %v, error %v", i, ok, err))
			continue
		}
		m.latMs = append(m.latMs, toMs(t1.Sub(t0)))
		m.cpuMs = append(m.cpuMs, toMs(cpuNow()-cpu0))
		m.inputBytes += bytesPerOp
		if tr.tracing() && traced != nil {
			traced(i, t0, t1)
		}
	}
	m.wall = time.Since(start)
	return m
}

// workload is one of the four benchmark workloads.
type workload interface {
	// tailQ is the fixed tail percentile op_tail_ms is read at.
	tailQ() float64
	// prepare generates the inputs and reference results from the seed.
	// It runs once and is not part of setup_s: it is the benchmark's
	// work, not the system's.
	prepare() error
	// setUp stages the inputs below dir, boots the nodes, mounts them and
	// warms the path up. tr is nil on an untraced run.
	setUp(ctx context.Context, dir string, tr *tracer) (*env, error)
	// measure runs the workload for about the given time on the last
	// set-up and checks every result.
	measure(ctx context.Context, seconds float64) (*measurement, error)
	// breakReference corrupts the reference results (config.breakExpected).
	breakReference()
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "invoke_open":
		return &invokeOpen{cfg: cfg}, nil
	case "offload_mix":
		return &offloadMix{cfg: cfg}, nil
	case "hostpull_wc":
		return &hostPull{cfg: cfg}, nil
	case "fleet_wc":
		return &fleetWC{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"invoke_open", "offload_mix", "hostpull_wc", "fleet_wc"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the line the driver reads, plus the
// workload and mode so a result file is self-describing.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Traced    bool              `json:"traced,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// FirstFailure says what went wrong with the first failed operation.
	FirstFailure string `json:"first_failure,omitempty"`
	// Void lists why the run's numbers must not be used, if any reason
	// applies; a void run exits non-zero.
	Void []string `json:"void,omitempty"`
}

// The open-loop generator held its schedule when 99 % of its arrivals
// left within lateP99LimitMs of their due time. A phase in which it did
// not is measured again, maxPhases phases at most: with set-up that stays
// well inside the 180 s a run may take, and it waits out the few minutes a
// noisy spell of the machine lasts instead of failing every run begun in
// one.
const (
	lateP99LimitMs = 5.0
	maxPhases      = 6
)

func generatorStalled(m *measurement) bool {
	return m.layer["loadgen.late_ms_p99"] > lateP99LimitMs
}

// refShare is the part of a traced run's time spent on the untraced
// reference phase that loadgen.trace_overhead_ratio is measured against.
const refShare = 0.25

// runWorkload runs one workload in one mode and returns its metrics:
// the end-to-end set on an untraced run, the per-layer set on a traced
// one.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	genStart := time.Now()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", cfg.workload, err)
	}
	inputsGenS := time.Since(genStart).Seconds()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var e *env
	setupS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		if e != nil {
			e.close()
			os.RemoveAll(filepath.Join(root, fmt.Sprintf("setup%d", i-1)))
		}
		t0 := time.Now()
		if e, err = w.setUp(ctx, dir, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	if cfg.breakExpected {
		w.breakReference()
	}

	seconds, refP50 := cfg.seconds, 0.0
	if cfg.trace {
		ref, err := w.measure(ctx, cfg.seconds*refShare)
		if err != nil {
			return nil, fmt.Errorf("%s: reference phase: %w", cfg.workload, err)
		}
		refP50 = median(ref.latMs)
		seconds = cfg.seconds * (1 - refShare)
		tr.on.Store(true)
	}
	// A phase the generator could not drive on schedule says more about
	// what else the machine was doing than about the system. It is measured
	// again, a bounded number of times, and the run is void if the
	// generator never holds its schedule.
	var (
		m                      *measurement
		d                      counters
		procBefore, procAfter  procSnapshot
		goroutinesPeak, phases int
	)
	for phases = 1; ; phases++ {
		before := readCounters(e)
		procBefore = readProc()
		gs := startGoroutineSampler()
		m, err = w.measure(ctx, seconds)
		goroutinesPeak = gs.finish()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		procAfter = readProc()
		d = readCounters(e).minus(before)
		if !generatorStalled(m) || phases == maxPhases {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: load generator stalled (late p99 %.1f ms, max %.1f ms); measuring again\n",
			cfg.workload, m.layer["loadgen.late_ms_p99"], m.layer["loadgen.late_ms_max"])
		if tr != nil {
			tr.reset()
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}

	ops := float64(len(m.latMs))
	wallS := m.wall.Seconds()
	res := &result{
		Workload: cfg.workload, Traced: cfg.trace,
		Attempted: m.attempted, Failed: m.failed, Correct: m.failed == 0 && m.attempted > 0,
		FirstFailure: m.firstFail,
		Metrics:      make(map[string]metric),
	}
	p50 := median(m.latMs)
	if !cfg.trace {
		res.put("setup_s", median(setupS))
		res.put("op_p50_ms", p50)
		res.put("op_tail_ms", percentile(m.latMs, w.tailQ()))
		res.put("ops_per_s", ratio(ops, wallS))
		res.put("mb_per_s", ratio(float64(m.inputBytes)/1e6, wallS))
		res.put("host_wire_bytes_per_op", ratio(d["host.wire_bytes"], ops))
	} else {
		layerMetrics(res, e, d, m, tr, ops, wallS)
		res.put("loadgen.inputs_gen_s", inputsGenS)
		res.put("loadgen.trace_overhead_ratio", ratio(p50, refP50))
		res.put("process.allocs_per_op", ratio(float64(procAfter.mallocs-procBefore.mallocs), ops))
		res.put("process.alloc_kb_per_op", ratio(float64(procAfter.allocBytes-procBefore.allocBytes)/1024, ops))
		res.put("process.gc_cycles", float64(procAfter.gcCycles-procBefore.gcCycles))
		res.put("process.gc_pause_ms_total", toMs(procAfter.gcPause-procBefore.gcPause))
		res.put("process.goroutines_peak", float64(goroutinesPeak))
		res.put("process.peak_rss_mb", procAfter.peakRSSMB)
		res.put("process.cpu_ms_per_op", median(m.cpuMs))
		if cfg.traceOut != "" {
			if err := tr.writeFile(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}

	// Validity: numbers from a run the harness could not drive as
	// specified, or that fell off the path under test, are refused.
	if generatorStalled(m) {
		res.Void = append(res.Void, fmt.Sprintf("load generator ran late in each of %d phases: loadgen.late_ms_p99 = %.2f ms (limit %v)",
			phases, m.layer["loadgen.late_ms_p99"], lateP99LimitMs))
	}
	if d["smartfam.degraded"] > 0 {
		res.Void = append(res.Void, fmt.Sprintf("push front door degraded to polling %v times", d["smartfam.degraded"]))
	}
	if e.rttMs < toMs(linkRTT)-2 || e.rttMs > toMs(linkRTT)+2 {
		res.Void = append(res.Void, fmt.Sprintf("netsim.rtt_ms = %.2f, outside %v +- 2 ms", e.rttMs, linkRTT))
	}
	if v := res.Metrics["loadgen.tiling_violations"].Value; v > 0 {
		res.Void = append(res.Void, fmt.Sprintf("%v traced invocations are not tiled by their four intervals", v))
	}
	return res, nil
}

// put reports one metric under its declared unit.
func (r *result) put(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: units[name]}
}

// counters is a flat snapshot of every registry the layer metrics read,
// under the benchmark's own keys, so a phase's share is one subtraction.
type counters map[string]float64

func (c counters) minus(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// nfsOps are the file service's per-op request counters.
var nfsOps = []string{
	nfs.OpCreate, nfs.OpAppend, nfs.OpReadAt, nfs.OpStat, nfs.OpList, nfs.OpRemove,
	nfs.OpRename, nfs.OpWrite, nfs.OpPing, nfs.OpCommit, nfs.OpSum, nfs.OpWatch,
}

func readCounters(e *env) counters {
	c := make(counters)
	for _, n := range e.nodes {
		hm := n.mount.Metrics()
		sent := float64(hm.Counter(metrics.NFSClientBytesSent).Value())
		recv := float64(hm.Counter(metrics.NFSClientBytesRecv).Value())
		c["nfs.bytes_sent"] += sent
		c["nfs.bytes_recv"] += recv
		c["host.wire_bytes"] += sent + recv
		c["nfs.pipeline_stalls"] += float64(hm.Counter(metrics.NFSClientPipelineStalls).Value())
		c["nfs.replays"] += float64(hm.Counter(metrics.NFSClientReplays).Value())

		sm := n.srv.Metrics()
		c["nfs.watch_notifies"] += float64(sm.Counter(metrics.NFSWatchNotifies).Value())
		c["nfs.watch_dropped"] += float64(sm.Counter(metrics.NFSWatchDropped).Value())
		for _, op := range nfsOps {
			c["nfs.server_ops"] += float64(sm.Counter(metrics.NFSOpPrefix + op).Value())
		}

		dm := n.daemon.Metrics()
		c["smartfam.resp_flushes"] += float64(dm.Counter(metrics.FamRespFlushes).Value())
		c["smartfam.resp_records"] += float64(dm.Counter(metrics.FamRespRecords).Value())
		c["smartfam.degraded"] += float64(dm.Counter(metrics.FamDegraded).Value())
		c["smartfam.corrupt_records"] += float64(dm.Counter(metrics.SmartfamCorruptRecords).Value())
		c["smartfam.deduped"] += float64(dm.Counter(metrics.DaemonDeduped).Value())
		c["smartfam.respond_errors"] += float64(dm.Counter(metrics.SmartfamRespondErrors).Value())
		if fi, err := os.Stat(n.journal); err == nil {
			c["smartfam.journal_bytes"] += float64(fi.Size())
		}

		qm := n.sched.Metrics()
		c["sched.wait_count"] += float64(qm.Timer(metrics.SchedWait).Count())
		c["sched.wait_ms"] += toMs(qm.Timer(metrics.SchedWait).Total())
		c["sched.run_count"] += float64(qm.Timer(metrics.SchedRun).Count())
		c["sched.run_ms"] += toMs(qm.Timer(metrics.SchedRun).Total())
		c["sched.queue_full_rejects"] += float64(qm.Counter(metrics.SchedQueueFullRejects).Value())
		c["sched.admission_deferrals"] += float64(qm.Counter(metrics.SchedAdmissionDeferrals).Value())
		c["sched.retries"] += float64(qm.Counter(metrics.SchedRetries).Value())
	}
	if r := e.hostReg; r != nil {
		c["smartfam.push_events"] = float64(r.Counter(metrics.FamPushEvents).Value())
		c["smartfam.degraded"] += float64(r.Counter(metrics.FamDegraded).Value())
		c["smartfam.req_flushes"] = float64(r.Counter(metrics.FamBatchFlushes).Value())
		c["smartfam.req_records"] = float64(r.Counter(metrics.FamBatchRecords).Value())
		c["smartfam.append_retries"] = float64(r.Counter(metrics.SmartfamClientAppendRetries).Value())
		c["smartfam.corrupt_records"] += float64(r.Counter(metrics.SmartfamCorruptRecords).Value())
		c["core.failovers"] = float64(r.Counter(metrics.CoreFailovers).Value())
		c["core.local_fallbacks"] = float64(r.Counter(metrics.CoreLocalFallbacks).Value())
	}
	if r := e.fleetReg; r != nil {
		c["fleet.merge_ms"] = toMs(r.Timer(metrics.FleetMerge).Total())
	}
	for _, f := range e.hostFS {
		c["nfs.share_calls"] += float64(f.calls.Load())
		c["nfs.stat_calls"] += float64(f.stats.Load())
	}
	return c
}

// layerMetrics fills in the per-layer set of a traced run: everything
// read from registries and spans here, plus what the workload measured
// itself (m.layer). Every declared name is reported on every workload; a
// layer the workload leaves idle reports 0.
func layerMetrics(res *result, e *env, d counters, m *measurement, tr *tracer, ops, wallS float64) {
	for _, decl := range perLayer {
		res.put(decl.Name, 0)
	}
	perOp := func(name, key string) { res.put(name, ratio(d[key], ops)) }
	total := func(name, key string) { res.put(name, d[key]) }

	res.put("netsim.rtt_ms", e.rttMs)
	res.put("netsim.host_link_utilisation", ratio(d["host.wire_bytes"], e.hostLink.Profile.BandwidthBps*wallS))

	res.put("nfs.append_ms_p50", median(tr.durations(spanAppend, "")))
	res.put("nfs.readat_ms_p50", median(tr.durations(spanReadAt, "")))
	perOp("nfs.share_calls_per_op", "nfs.share_calls")
	perOp("nfs.stat_calls_per_op", "nfs.stat_calls")
	perOp("nfs.bytes_sent_per_op", "nfs.bytes_sent")
	perOp("nfs.bytes_recv_per_op", "nfs.bytes_recv")
	perOp("nfs.pipeline_stalls_per_op", "nfs.pipeline_stalls")
	total("nfs.replays", "nfs.replays")
	perOp("nfs.watch_notifies_per_op", "nfs.watch_notifies")
	total("nfs.watch_dropped", "nfs.watch_dropped")
	perOp("nfs.server_ops_per_op", "nfs.server_ops")
	streamWait := sum(tr.durations(spanStreamWait, ""))
	res.put("nfs.stream_read_wait_ms_per_op", ratio(streamWait, ops))
	res.put("nfs.stream_mb_per_s", ratio(tr.byteCount(spanStreamWait)/1e6, streamWait/1e3))

	// The invocation tiles: one per invoke_open operation, offload_mix job
	// or fleet_wc attempt.
	res.put("smartfam.batch_wait_ms_p50", median(tr.tileParts(func(t tile) float64 { return t.batchMs })))
	res.put("smartfam.dispatch_wait_ms_p50", median(tr.tileParts(func(t tile) float64 { return t.dispatchMs })))
	res.put("smartfam.response_wait_ms_p50", median(tr.tileParts(func(t tile) float64 { return t.responseMs })))
	res.put("smartfam.frontdoor_ms_p50", median(tr.tileParts(tile.frontdoorMs)))
	tr.mu.Lock()
	res.put("loadgen.tiling_violations", float64(tr.violations))
	tr.mu.Unlock()

	res.put("smartfam.req_records_per_flush", ratio(d["smartfam.req_records"], d["smartfam.req_flushes"]))
	res.put("smartfam.resp_records_per_flush", ratio(d["smartfam.resp_records"], d["smartfam.resp_flushes"]))
	perOp("smartfam.push_events_per_op", "smartfam.push_events")
	perOp("smartfam.journal_bytes_per_op", "smartfam.journal_bytes")
	total("smartfam.degraded", "smartfam.degraded")
	total("smartfam.append_retries", "smartfam.append_retries")
	total("smartfam.corrupt_records", "smartfam.corrupt_records")
	total("smartfam.deduped", "smartfam.deduped")
	total("smartfam.respond_errors", "smartfam.respond_errors")

	res.put("sched.wait_ms_mean", ratio(d["sched.wait_ms"], d["sched.wait_count"]))
	res.put("sched.run_ms_mean", ratio(d["sched.run_ms"], d["sched.run_count"]))
	waitMax := 0.0
	for _, n := range e.nodes {
		// A timer's maximum cannot be differenced: this one covers the
		// node's whole life, warm-up included.
		if v := toMs(n.sched.Metrics().Timer(metrics.SchedWait).Max()); v > waitMax {
			waitMax = v
		}
	}
	res.put("sched.wait_ms_max", waitMax)
	total("sched.queue_full_rejects", "sched.queue_full_rejects")
	total("sched.admission_deferrals", "sched.admission_deferrals")
	total("sched.retries", "sched.retries")

	for _, module := range []string{echoModule, core.ModuleWordCount, core.ModuleStringMatch} {
		res.put("core.module_run_ms_p50_"+module, median(tr.durations(spanModuleRun, module)))
	}
	storeWait := sum(tr.durations(spanStoreWait, ""))
	res.put("core.store_read_wait_ms_per_op", ratio(storeWait, ops))
	res.put("core.store_read_mb_per_s", ratio(tr.byteCount(spanStoreWait)/1e6, storeWait/1e3))
	res.put("core.result_bytes_per_op", ratio(tr.byteCount("result"), ops))
	total("core.failovers", "core.failovers")
	total("core.local_fallbacks", "core.local_fallbacks")
	perOp("fleet.merge_ms_per_op", "fleet.merge_ms")

	for name, v := range m.layer {
		res.put(name, v)
	}
}
