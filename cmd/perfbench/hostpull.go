package main

import (
	"context"
	"fmt"
	"io"

	"mcsd/internal/mapreduce"
	"mcsd/internal/netsim"
	"mcsd/internal/partition"
	"mcsd/internal/workloads"
)

// hostPull is the paper's baseline, the thing offloading is measured
// against: the host streams the same corpus off the SD node's share over
// the modelled link and counts the words itself, with the same engine
// and partition driver the module uses. The file service's bulk-read
// path and the link dominate; smartFAM, the scheduler and the fleet are
// idle. An engine gain must show here and in offload_mix; a read-ahead
// gain only here.
type hostPull struct {
	cfg  config
	text []byte
	want wordCountRef

	tr   *tracer
	node *node
}

func (w *hostPull) tailQ() float64 { return 0.75 }

func (w *hostPull) prepare() error {
	w.text = seededText(w.cfg.sizes.CorpusBytes, w.cfg.seed)
	_, w.want = countWords(w.text)
	return nil
}

func (w *hostPull) breakReference() { w.want.total++ }

func (w *hostPull) setUp(ctx context.Context, dir string, tr *tracer) (*env, error) {
	if err := stage(dir, textFile, w.text); err != nil {
		return nil, err
	}
	e := &env{hostLink: netsim.NewLink(netsim.ProfileGigabitEthernet)}
	n, err := startNode(ctx, "sd0", dir, e.hostLink, nodeOpts{workers: workers(), tr: tr})
	if err != nil {
		return nil, err
	}
	e.nodes = []*node{n}
	w.tr, w.node = tr, n
	if e.rttMs, err = measureRTT(n.mount, textFile); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < w.cfg.sizes.WarmupJobs; i++ {
		if _, ok, err := w.job(ctx); err != nil || !ok {
			e.close()
			return nil, fmt.Errorf("warm-up job %d failed (verified %v): %v", i, ok, err)
		}
	}
	return e, nil
}

// job pulls the corpus through the mount into the partition driver on
// the host and checks the counts against the sequential reference.
func (w *hostPull) job(ctx context.Context) (*partition.Result[string, int], bool, error) {
	var in io.ReadCloser
	in, err := w.node.mount.OpenReader(textFile)
	if err != nil {
		return nil, false, err
	}
	defer in.Close()
	if w.tr.tracing() {
		in = &timedReader{inner: in, tr: w.tr, name: spanStreamWait, parent: int(w.tr.opIdx.Load())}
	}
	res, err := partition.Run(ctx, mapreduce.Config{Workers: workers()}, workloads.WordCountSpec(), in,
		partition.Options{FragmentSize: w.cfg.sizes.PartitionBytes}, workloads.WordCountMerge)
	if err != nil {
		return nil, false, err
	}
	got := wordCountRef{unique: len(res.Pairs)}
	for _, p := range res.Pairs {
		got.total += int64(p.Value)
	}
	return res, got == w.want, nil
}

func (w *hostPull) measure(ctx context.Context, seconds float64) (*measurement, error) {
	var st mapreduce.Stats
	var frags, keysRatio, engineMs float64
	op := func(int) (bool, error) {
		res, ok, err := w.job(ctx)
		if err != nil || !ok {
			return false, err
		}
		s := res.Stats
		st.SplitTime += s.SplitTime
		st.MapTime += s.MapTime
		st.ReduceTime += s.ReduceTime
		st.ShuffleTime += s.ShuffleTime
		st.MergeTime += s.MergeTime
		st.PairsEmitted += s.PairsEmitted
		st.TaskRetries += s.TaskRetries
		frags += float64(res.Fragments)
		keysRatio += ratio(float64(s.FragmentKeys), float64(s.UniqueKeys))
		engineMs += toMs(s.Total())
		return true, nil
	}
	m := closedLoop(w.tr, seconds, w.cfg.sizes.CorpusBytes, op, nil)
	if w.tr.tracing() {
		ops := float64(len(m.latMs))
		l := m.layer
		l["core.wc_job_ms_p50"] = median(m.latMs)
		l["partition.fragments_per_op"] = ratio(frags, ops)
		l["partition.fragment_keys_ratio"] = ratio(keysRatio, ops)
		// What the driver itself costs: the job minus the time it was
		// blocked on the stream and the time the engine's phases took. The
		// fragment merge is inside it; nothing outside the driver can time
		// that stage alone.
		streamMs := sum(w.tr.durations(spanStreamWait, ""))
		l["partition.driver_self_ms_per_op"] = ratio(sum(m.latMs)-streamMs-engineMs, ops)
		l["mapreduce.split_ms_per_op"] = ratio(toMs(st.SplitTime), ops)
		l["mapreduce.map_ms_per_op"] = ratio(toMs(st.MapTime), ops)
		l["mapreduce.reduce_ms_per_op"] = ratio(toMs(st.ReduceTime), ops)
		l["mapreduce.shuffle_ms_per_op"] = ratio(toMs(st.ShuffleTime), ops)
		l["mapreduce.merge_ms_per_op"] = ratio(toMs(st.MergeTime), ops)
		l["mapreduce.pairs_emitted_per_op"] = ratio(float64(st.PairsEmitted), ops)
		l["mapreduce.task_retries"] = float64(st.TaskRetries)
		l["mapreduce.engine_mb_per_s"] = ratio(float64(m.inputBytes)/1e6, engineMs/1e3)
	}
	return m, nil
}
