package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// fleetWindow is fleet.Config's default per-node in-flight bound, which
// the coordinator here runs at.
const fleetWindow = 2

// fleetWC scatters one word count over several SD nodes through
// fleet.Coordinator. Each node's modules read the shared corpus through
// a private throttled self-mount, its modelled disk, so the job is
// disk-bound and everything above the disk floor is scatter, gather and
// merge overhead plus a few dozen medium smartFAM invocations with
// multi-KiB pair payloads. Four nodes, not eight: eight need more CPU
// per job than a few shared cores give without scheduler noise.
type fleetWC struct {
	cfg    config
	corpus []byte
	want   []byte // canonical bytes of the sequential reference result

	tr    *tracer
	coord *fleet.Coordinator
}

func (w *fleetWC) tailQ() float64 { return 0.75 }

// prepare builds the reference from a sequential count, not from the
// engine: the complete sorted (word, count) run and the top table, as a
// single-node run would report them.
func (w *fleetWC) prepare() error {
	w.corpus = seededText(w.cfg.sizes.FleetBytes, w.cfg.seed)
	counts, ref := countWords(w.corpus)
	out := core.WordCountOutput{TotalWords: ref.total, UniqueWords: ref.unique}
	for word, n := range counts {
		out.Pairs = append(out.Pairs, core.WordFreq{Word: word, Count: n})
	}
	sort.Slice(out.Pairs, func(i, j int) bool { return out.Pairs[i].Word < out.Pairs[j].Word })
	for _, p := range workloads.TopWords(counts, 100) { // the coordinator's default table size
		out.Top = append(out.Top, core.WordFreq{Word: p.Key, Count: p.Value})
	}
	w.want = fleet.CanonicalWordCount(&out)
	return nil
}

func (w *fleetWC) breakReference() { w.want = append(w.want, ' ') }

func (w *fleetWC) setUp(ctx context.Context, dir string, tr *tracer) (e *env, err error) {
	sz := w.cfg.sizes
	e = &env{
		hostLink: netsim.NewLink(netsim.ProfileGigabitEthernet), // one link: the host's single NIC
		hostReg:  metrics.NewRegistry(),
		fleetReg: metrics.NewRegistry(),
	}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	nodes := make([]fleet.Node, sz.FleetNodes)
	for i := range nodes {
		name := fmt.Sprintf("sd%d", i)
		ndir := filepath.Join(dir, name)
		if err := stage(ndir, textFile, w.corpus); err != nil {
			return e, err
		}
		n, err := startNode(ctx, name, ndir, e.hostLink, nodeOpts{workers: workers(), diskBps: sz.FleetDiskBps, tr: tr})
		if err != nil {
			return e, err
		}
		e.nodes = append(e.nodes, n)
		client := smartfam.NewClient(e.share(n, tr), smartfam.DefaultPollInterval)
		client.SetBatching(0, 0)
		client.SetMetrics(e.hostReg)
		nodes[i] = fleet.Node{Name: name, Session: client}
		if tr != nil {
			nodes[i].Session = &timedSession{inner: client, tr: tr, node: name}
		}
	}
	w.tr = tr
	w.coord = fleet.NewCoordinator(nodes, fleet.Config{AttemptTimeout: 60 * time.Second, Metrics: e.fleetReg})
	if e.rttMs, err = measureRTT(e.nodes[0].mount, textFile); err != nil {
		return e, err
	}
	for i := 0; i < sz.WarmupJobs; i++ {
		if _, ok, err := w.job(ctx); err != nil || !ok {
			return e, fmt.Errorf("warm-up job %d failed (verified %v): %v", i, ok, err)
		}
	}
	return e, nil
}

// job runs one fleet word count and checks that its output is byte for
// byte the single-node reference.
func (w *fleetWC) job(ctx context.Context) (*fleet.WordCountResult, bool, error) {
	sz := w.cfg.sizes
	total := int64(len(w.corpus))
	res, err := w.coord.WordCount(ctx, fleet.WordCountJob{
		DataFile:      textFile,
		TotalBytes:    total,
		FragmentBytes: (total + int64(sz.FleetFragments) - 1) / int64(sz.FleetFragments),
	})
	if err != nil {
		return nil, false, err
	}
	return res, bytes.Equal(fleet.CanonicalWordCount(&res.Output), w.want), nil
}

func (w *fleetWC) measure(ctx context.Context, seconds float64) (*measurement, error) {
	var stats fleet.Stats
	var outs []*core.WordCountOutput
	var tails []float64
	op := func(int) (bool, error) {
		res, ok, err := w.job(ctx)
		if err != nil || !ok {
			return false, err
		}
		stats.Dispatches += res.Stats.Dispatches
		stats.Speculations += res.Stats.Speculations
		stats.DupResults += res.Stats.DupResults
		stats.QueueSteals += res.Stats.QueueSteals
		stats.QueueFullRequeues += res.Stats.QueueFullRequeues
		stats.NodeFailures += res.Stats.NodeFailures
		outs = append(outs, &res.Output)
		return true, nil
	}
	// The job is scatter (attempt lanes, side by side per node) then the
	// gather tail: the last attempt's return to WordCount's.
	traced := func(i int, _, t1 time.Time) {
		last := w.lastAttemptEnd(i)
		w.tr.add(i, spanGatherTail, last, t1, int(w.tr.opIdx.Load()), "")
		tails = append(tails, toMs(t1.Sub(last)))
	}
	m := closedLoop(w.tr, seconds, int64(len(w.corpus)), op, traced)
	if !w.tr.tracing() {
		return m, nil
	}

	sz, ops, l := w.cfg.sizes, float64(len(m.latMs)), m.layer
	l["core.wc_job_ms_p50"] = median(m.latMs)
	// The merged output carries no elapsed time, so no engine rate comes
	// out of this; the fragment accounting and shuffle/merge sums do.
	sdEngineMetrics(l, outs, float64(len(w.corpus)), ops)
	// The slowest attempt sets when the gather tail can begin.
	l["fleet.attempt_ms_p50"] = median(w.tr.durations(spanAttempt, ""))
	l["fleet.attempt_ms_max"] = median(w.tr.perOp(spanAttempt, maxOf))
	l["fleet.gather_tail_ms_p50"] = median(tails)
	busy := sum(w.tr.durations(spanAttempt, ""))
	l["fleet.node_busy_ratio"] = ratio(busy, float64(sz.FleetNodes*fleetWindow)*sum(m.latMs))
	floorMs := float64(len(w.corpus)) / (float64(sz.FleetNodes) * sz.FleetDiskBps) * 1e3
	l["fleet.disk_floor_ratio"] = ratio(median(m.latMs), floorMs)
	l["fleet.dispatches_per_op"] = ratio(float64(stats.Dispatches), ops)
	l["fleet.speculations"] = float64(stats.Speculations)
	l["fleet.dup_results"] = float64(stats.DupResults)
	l["fleet.queue_steals"] = float64(stats.QueueSteals)
	l["fleet.queue_full_requeues"] = float64(stats.QueueFullRequeues)
	l["fleet.node_failures"] = float64(stats.NodeFailures)
	return m, nil
}

// lastAttemptEnd is when the last attempt of job op returned.
func (w *fleetWC) lastAttemptEnd(op int) time.Time {
	t := w.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	var last int64
	for _, s := range t.spans {
		if s.Op == op && s.Name == spanAttempt && s.EndNs > last {
			last = s.EndNs
		}
	}
	return t.t0.Add(time.Duration(last))
}
