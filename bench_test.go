// Package mcsd_test holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper (regenerated through the
// performance model), real-engine throughput benchmarks, and ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mcsd_test

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcsd/internal/cluster"
	"mcsd/internal/core"
	"mcsd/internal/experiments"
	"mcsd/internal/mapreduce"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/partition"
	"mcsd/internal/sim"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// --- Paper tables and figures -------------------------------------------

// BenchmarkTable1ClusterModel regenerates Table I.
func BenchmarkTable1ClusterModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table1()
		if tbl.NumRows() != 5 {
			b.Fatal("Table I must have 5 nodes")
		}
	}
}

// BenchmarkFig8aSingleAppSpeedup regenerates Fig. 8(a) and reports the
// duo-core word-count speedup as a metric.
func BenchmarkFig8aSingleAppSpeedup(b *testing.B) {
	var duoWC float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8a()
		if err != nil {
			b.Fatal(err)
		}
		duoWC, _ = fig.Series[2].At(500)
	}
	b.ReportMetric(duoWC, "duo-wc-speedup")
}

// BenchmarkFig8bWordCountGrowth regenerates Fig. 8(b) and reports the
// duo-core elapsed seconds at 2 GB.
func BenchmarkFig8bWordCountGrowth(b *testing.B) {
	var at2g float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8b()
		if err != nil {
			b.Fatal(err)
		}
		at2g, _ = fig.Series[0].At(2000)
	}
	b.ReportMetric(at2g, "duo-2G-seconds")
}

// BenchmarkFig8cStringMatchGrowth regenerates Fig. 8(c).
func BenchmarkFig8cStringMatchGrowth(b *testing.B) {
	var at2g float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8c()
		if err != nil {
			b.Fatal(err)
		}
		at2g, _ = fig.Series[0].At(2000)
	}
	b.ReportMetric(at2g, "duo-2G-seconds")
}

// BenchmarkFig9MMWCScenarios regenerates Fig. 9 and reports the host-only
// speedup at 1.25 GB (paper: ~17.4x).
func BenchmarkFig9MMWCScenarios(b *testing.B) {
	var hostOnly float64
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		hostOnly, _ = figs[0].Series[0].At(1250)
	}
	b.ReportMetric(hostOnly, "hostonly-1.25G-speedup")
}

// BenchmarkFig10MMSMScenarios regenerates Fig. 10 and reports the host-only
// speedup at 1.25 GB (paper: ~2x, no blowup).
func BenchmarkFig10MMSMScenarios(b *testing.B) {
	var hostOnly float64
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		hostOnly, _ = figs[0].Series[0].At(1250)
	}
	b.ReportMetric(hostOnly, "hostonly-1.25G-speedup")
}

// BenchmarkClaimsMemoryWall re-checks the §V prose claims (memory wall at
// 1.5 GB, 1/6 elapsed-time ratio, 2x duo speedups).
func BenchmarkClaimsMemoryWall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lines, err := experiments.Claims()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range lines {
			if len(l) >= 6 && l[:6] == "[FAIL]" {
				b.Fatalf("claim failed: %s", l)
			}
		}
	}
}

// --- Real-engine throughput ----------------------------------------------

const engineCorpus = 4 << 20

func benchEngineInput(b *testing.B) []byte {
	b.Helper()
	return workloads.GenerateTextBytes(engineCorpus, 1)
}

// BenchmarkRunWordcount measures the real Phoenix-style runtime on word
// count with the node's cores, with and without a combiner. The map kernel
// already combines within each map call (one pair per distinct word per
// task), so the two variants differ only in how the engine folds those
// pairs: streaming records against staged pairs. The engine's core sweep is
//
//	go test -run '^$' -bench 'RunWordcount|PartitionDriver' -cpu 1,2,4,8 .
func BenchmarkRunWordcount(b *testing.B) {
	input := benchEngineInput(b)
	withCombine := workloads.WordCountSpec()
	noCombine := workloads.WordCountSpec()
	noCombine.Combine = nil
	for _, v := range []struct {
		name string
		spec mapreduce.Spec[string, int, int]
	}{
		{"with-combine", withCombine},
		{"no-combine", noCombine},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				if _, err := mapreduce.Run(context.Background(), mapreduce.Config{},
					v.spec, input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineWordCountSequential is the sequential baseline for
// BenchmarkRunWordcount/with-combine.
func BenchmarkEngineWordCountSequential(b *testing.B) {
	input := benchEngineInput(b)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.RunSequential(context.Background(), mapreduce.Config{},
			workloads.WordCountSpec(), input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStringMatch measures the string-match spec.
func BenchmarkEngineStringMatch(b *testing.B) {
	keys := workloads.GenerateKeys(8, 2)
	input := workloads.GenerateEncryptBytes(engineCorpus, 3, keys, 0.05)
	spec := workloads.StringMatchSpec(keys)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.Run(context.Background(), mapreduce.Config{}, spec, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineMatMul measures the MapReduce matrix multiplication.
func BenchmarkEngineMatMul(b *testing.B) {
	a := workloads.RandomMatrix(128, 128, 1)
	bb := workloads.RandomMatrix(128, 128, 2)
	spec := workloads.MatMulSpec(a, bb)
	rows := workloads.RowIndexInput(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.Run(context.Background(), mapreduce.Config{}, spec, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartFAMRoundTrip measures one log-file invocation round trip
// through a local share (the mechanism latency floor).
func BenchmarkSmartFAMRoundTrip(b *testing.B) {
	dir := b.TempDir()
	share := smartfam.DirFS(dir)
	reg := smartfam.NewRegistry(share)
	echo := smartfam.ModuleFunc{
		ModuleName: "echo",
		Fn:         func(_ context.Context, p []byte) ([]byte, error) { return p, nil },
	}
	if err := reg.Register(echo); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(200*time.Microsecond))
	go d.Run(ctx) //nolint:errcheck
	c := smartfam.NewClient(share, 200*time.Microsecond)
	payload := []byte("ping")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke(ctx, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// nfsPair spins up a server over a temp dir and returns a connected client.
func nfsPair(b *testing.B) *nfs.Client {
	b.Helper()
	root := b.TempDir()
	srv := nfs.NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	b.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
	})
	c, err := nfs.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkNFSWriteThroughput measures staging data onto an SD node.
func BenchmarkNFSWriteThroughput(b *testing.B) {
	c := nfsPair(b)
	data := bytes.Repeat([]byte("x"), 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFile("bench.bin", data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNFSReadThroughput measures pulling data back over the wire —
// the per-byte cost the host-only scenario pays.
func BenchmarkNFSReadThroughput(b *testing.B) {
	c := nfsPair(b)
	data := bytes.Repeat([]byte("x"), 1<<20)
	if err := c.WriteFile("bench.bin", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadFile("bench.bin"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOffloadEndToEnd measures a full McSD word-count offload: the
// runtime invokes the preloaded module on an SD node through smartFAM.
func BenchmarkOffloadEndToEnd(b *testing.B) {
	dir := b.TempDir()
	share := smartfam.DirFS(dir)
	reg := smartfam.NewRegistry(share)
	for _, m := range core.StandardModules(core.ModuleConfig{Store: core.DirStore(dir), Workers: 2}) {
		if err := reg.Register(m); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(200*time.Microsecond))
	go d.Run(ctx) //nolint:errcheck

	corpus := workloads.GenerateTextBytes(1<<20, 4)
	if err := os.WriteFile(filepath.Join(dir, "c.txt"), corpus, 0o644); err != nil {
		b.Fatal(err)
	}
	rt := core.New(core.WithPollInterval(200 * time.Microsecond))
	rt.AttachSD("sd0", share)
	params := core.WordCountParams{DataFile: "c.txt", PartitionBytes: 256 << 10, TopN: 5}
	b.SetBytes(int64(len(corpus)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Invoke(ctx, core.ModuleWordCount, params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkEngineHistogram measures the fixed-key-space profile (768
// buckets regardless of input size).
func BenchmarkEngineHistogram(b *testing.B) {
	input := workloads.GenerateBitmap(engineCorpus, 8)
	spec := workloads.HistogramSpec()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.Run(context.Background(), mapreduce.Config{}, spec, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineKMeans measures iterative MapReduce: a full clustering of
// 20k 4-d points into 8 clusters.
func BenchmarkEngineKMeans(b *testing.B) {
	pts, _ := workloads.GeneratePoints(20_000, 4, 8, 9)
	enc, dim, err := workloads.EncodePoints(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workloads.KMeans(context.Background(), mapreduce.Config{}, enc, dim, 8, 30, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Rounds), "rounds")
		}
	}
}

// BenchmarkPartitionDriver runs word count through the out-of-core driver
// at 512 KiB fragments; set against BenchmarkRunWordcount/with-combine it is
// the cost of the Fig. 6 extension when memory is not scarce.
func BenchmarkPartitionDriver(b *testing.B) {
	input := benchEngineInput(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		_, err := partition.Run(context.Background(), mapreduce.Config{},
			workloads.WordCountSpec(), bytes.NewReader(input),
			partition.Options{FragmentSize: 512 << 10}, workloads.WordCountMerge)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDBSelect measures the database-operation module's engine
// path (CSV parse + filter + group-by aggregate).
func BenchmarkEngineDBSelect(b *testing.B) {
	input := workloads.GenerateSalesBytes(engineCorpus, 6)
	spec := workloads.DBSelectSpec(workloads.DBQuery{GroupBy: "region", MinPrice: 100})
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.Run(context.Background(), mapreduce.Config{}, spec, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSDScaling reports the simulated striping speedup for a
// 2 GB word count across 1-6 SD nodes (the §VI multi-SD study).
func BenchmarkMultiSDScaling(b *testing.B) {
	cfg := sim.PairConfig{
		Cluster:        cluster.TableI(),
		DataCost:       workloads.WordCountCost(),
		DataBytes:      2 << 30,
		PartitionBytes: experiments.PartitionBytes,
		SMBLoad:        experiments.SMBLoad,
	}
	for _, k := range []int{1, 2, 4, 6} {
		b.Run(formatMB(int64(k))[:len(formatMB(int64(k)))-2]+"nodes", func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				var err error
				s, err = sim.MultiSDSpeedup(cfg, k)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s, "speedup")
		})
	}
}

// BenchmarkAblationPartitionSize sweeps the simulated fragment size for a
// 2 GB word count on the SD node — the §IV-C "how to pick
// [partition-size]" question.
func BenchmarkAblationPartitionSize(b *testing.B) {
	node := *cluster.TableI().SD()
	for _, fragMB := range []int64{100, 300, 600, 900, 1200} {
		b.Run(formatMB(fragMB), func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				out, err := sim.DataAppTime(workloads.WordCountCost(), 2<<30,
					sim.Exec{Node: node, PartitionBytes: fragMB << 20})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = out.Elapsed.Seconds()
			}
			b.ReportMetric(elapsed, "sim-seconds")
		})
	}
}

// BenchmarkAblationNetworkProfiles prices the host-only data staging under
// the three interconnects (the paper's §VI InfiniBand upgrade).
func BenchmarkAblationNetworkProfiles(b *testing.B) {
	for _, p := range []netsim.Profile{
		netsim.ProfileFastEthernet,
		netsim.ProfileGigabitEthernet,
		netsim.ProfileInfiniBand,
	} {
		b.Run(p.Name, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				sec = sim.StageTime(p, 1<<30, experiments.SMBLoad).Seconds()
			}
			b.ReportMetric(sec, "stage-1G-seconds")
		})
	}
}

func formatMB(n int64) string {
	const digits = "0123456789"
	if n == 0 {
		return "0MB"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf[i:]) + "MB"
}
