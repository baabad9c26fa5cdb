package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it. The Go table
// below is what the harness reports from; the smoke test fails unless the
// two agree name for name and unit for unit, so neither can drift.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see. Every
// workload reports every one of them on an untraced run, and none is
// ever 0. Failures are not in the table: they are the attempted/failed
// counts of the result itself, and any increase fails a comparison.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"mb_per_s", "MB/s", "higher", 0.25},
	{"host_wire_bytes_per_op", "B", "lower", 0.15},
}

// perLayer are the metrics of single layers, reported on a traced run.
// "better" says which way an optimisation of that layer should move the
// figure; they carry no bound.
var perLayer = []metricDecl{
	{Name: "netsim.rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.host_link_utilisation", Unit: "ratio", Better: "lower"},

	{Name: "nfs.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nfs.readat_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nfs.share_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "nfs.stat_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "nfs.bytes_sent_per_op", Unit: "B", Better: "lower"},
	{Name: "nfs.bytes_recv_per_op", Unit: "B", Better: "lower"},
	{Name: "nfs.pipeline_stalls_per_op", Unit: "count", Better: "lower"},
	{Name: "nfs.replays", Unit: "count", Better: "lower"},
	{Name: "nfs.watch_notifies_per_op", Unit: "count", Better: "lower"},
	{Name: "nfs.watch_dropped", Unit: "count", Better: "lower"},
	{Name: "nfs.server_ops_per_op", Unit: "count", Better: "lower"},
	{Name: "nfs.stream_read_wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "nfs.stream_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "smartfam.batch_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "smartfam.dispatch_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "smartfam.response_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "smartfam.frontdoor_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "smartfam.req_records_per_flush", Unit: "count", Better: "higher"},
	{Name: "smartfam.resp_records_per_flush", Unit: "count", Better: "higher"},
	{Name: "smartfam.push_events_per_op", Unit: "count", Better: "lower"},
	{Name: "smartfam.journal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "smartfam.degraded", Unit: "count", Better: "lower"},
	{Name: "smartfam.append_retries", Unit: "count", Better: "lower"},
	{Name: "smartfam.corrupt_records", Unit: "count", Better: "lower"},
	{Name: "smartfam.deduped", Unit: "count", Better: "lower"},
	{Name: "smartfam.respond_errors", Unit: "count", Better: "lower"},

	{Name: "sched.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "sched.wait_ms_max", Unit: "ms", Better: "lower"},
	{Name: "sched.run_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_full_rejects", Unit: "count", Better: "lower"},
	{Name: "sched.admission_deferrals", Unit: "count", Better: "lower"},
	{Name: "sched.retries", Unit: "count", Better: "lower"},

	{Name: "core.wc_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.sm_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.module_run_ms_p50_echo", Unit: "ms", Better: "lower"},
	{Name: "core.module_run_ms_p50_wordcount", Unit: "ms", Better: "lower"},
	{Name: "core.module_run_ms_p50_stringmatch", Unit: "ms", Better: "lower"},
	{Name: "core.store_read_wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.store_read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.result_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "core.failovers", Unit: "count", Better: "lower"},
	{Name: "core.local_fallbacks", Unit: "count", Better: "lower"},

	{Name: "partition.fragments_per_op", Unit: "count", Better: "lower"},
	{Name: "partition.fragment_keys_ratio", Unit: "ratio", Better: "lower"},
	{Name: "partition.driver_self_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "mapreduce.split_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.map_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.reduce_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.shuffle_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.merge_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.pairs_emitted_per_op", Unit: "count", Better: "lower"},
	{Name: "mapreduce.task_retries", Unit: "count", Better: "lower"},
	{Name: "mapreduce.engine_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "fleet.attempt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.attempt_ms_max", Unit: "ms", Better: "lower"},
	{Name: "fleet.gather_tail_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.merge_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "fleet.node_busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.disk_floor_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.dispatches_per_op", Unit: "count", Better: "lower"},
	{Name: "fleet.speculations", Unit: "count", Better: "lower"},
	{Name: "fleet.dup_results", Unit: "count", Better: "lower"},
	{Name: "fleet.queue_steals", Unit: "count", Better: "lower"},
	{Name: "fleet.queue_full_requeues", Unit: "count", Better: "lower"},
	{Name: "fleet.node_failures", Unit: "count", Better: "lower"},

	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "process.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.cpu_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "loadgen.inputs_gen_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "loadgen.shed_retries", Unit: "count", Better: "lower"},
	{Name: "loadgen.tiling_violations", Unit: "count", Better: "lower"},
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// benchmarkSpec is the part of BENCHMARK.json the harness reads back:
// the comparison takes its bounds and directions from the file, not from
// the table above, because the file is what the driver enforces.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
