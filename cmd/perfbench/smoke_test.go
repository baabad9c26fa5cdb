package main

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"

	"mcsd/internal/sched"
)

// smokeSizes shrink every workload to a fraction of a second: a 1 MiB
// corpus, 150 invocations at the full arrival rate, a fast modelled disk.
var smokeSizes = sizes{
	InvokeRate: 1000, InvokeWarmup: 50, InflightCap: 1024,
	SmallParam: 64, LargeParam: 4 << 10, LargeShare: 0.10,
	CorpusBytes: 1 << 20, PartitionBytes: 256 << 10, MatchKeys: 4, MatchHitRate: 0.01, TopN: 10,
	FleetNodes: 4, FleetBytes: 1 << 20, FleetFragments: 8, FleetDiskBps: 32e6,
	WarmupJobs: 1,
}

func smokeConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.15, trace: traced,
		sizes: smokeSizes, setups: 1, workdir: t.TempDir(),
	}
}

func declNames(decls []metricDecl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func resultNames(r *result) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSpecMatchesTable pins the Go metric table to BENCHMARK.json: the
// file is what the driver enforces, the table is what the harness
// reports from.
func TestSpecMatchesTable(t *testing.T) {
	spec, err := loadSpec("../../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end of %s differs from the endToEnd table:\nfile  %+v\ntable %+v", specFile, spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer of %s differs from the perLayer table", specFile)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads of %s are %v, the harness runs %v", specFile, names, workloadNames)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d layer metrics; the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range append(declNames(endToEnd), declNames(perLayer)...) {
		if !valid.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
	}
}

// TestSmoke runs every workload at smoke size in both modes. Each must
// verify all its results and report exactly the declared names — none
// missing, none undeclared — and an untraced run's values must all be
// positive, as the contract asks of end-to-end metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), smokeConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := declNames(endToEnd)
			if traced {
				want = declNames(perLayer)
			}
			if got := resultNames(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v reports\n%v\nthe benchmark declares\n%v", name, traced, got, want)
			}
			for metric, m := range res.Metrics {
				if m.Unit == "" {
					t.Errorf("%s: %s has no unit", name, metric)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", name, metric, m.Value)
				}
			}
			if !traced {
				continue
			}
			if v := res.Metrics["loadgen.tiling_violations"].Value; v != 0 {
				t.Errorf("%s: %v traced invocations are not tiled by their four intervals", name, v)
			}
			// A decorator that hid the share's Watch would leave the run
			// measuring the polling fallback without a single failure.
			if name == "hostpull_wc" {
				continue // no invocations: the front door is idle
			}
			if v := res.Metrics["smartfam.push_events_per_op"].Value; v <= 0 {
				t.Errorf("%s: smartfam.push_events_per_op = %v; the traced run fell back to polling", name, v)
			}
			if v := res.Metrics["smartfam.degraded"].Value; v != 0 {
				t.Errorf("%s: smartfam.degraded = %v", name, v)
			}
		}
	}
}

// TestWrongExpectedCountsAsFailed corrupts every workload's reference
// result: each operation must then be counted as failed — not panic, not
// pass — and the run must report itself incorrect.
func TestWrongExpectedCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames {
		cfg := smokeConfig(t, name, false)
		cfg.breakExpected = true
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
			t.Errorf("%s: correct=%v with %d of %d failed; want every operation failed", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestShedInvocationIsSentAgain makes the SD refuse every invocation once
// with the scheduler's queue-full error: the caller must take that as
// backpressure, send each again and end with no failed operation.
func TestShedInvocationIsSentAgain(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	w := &invokeOpen{cfg: smokeConfig(t, "invoke_open", false)}
	w.echo = func(_ context.Context, p []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		if !seen[string(p)] {
			seen[string(p)] = true
			return nil, fmt.Errorf("node busy: %w", sched.ErrQueueFull)
		}
		return p, nil
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	e, err := w.setUp(context.Background(), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	m, err := w.measure(context.Background(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 || m.layer["loadgen.shed_retries"] != float64(m.attempted) {
		t.Errorf("%d of %d failed (%s) after %v resends; want none failed and one resend each",
			m.failed, m.attempted, m.firstFail, m.layer["loadgen.shed_retries"])
	}
}
