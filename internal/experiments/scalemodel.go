package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/mapreduce"
	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/partition"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// ScaleModel runs the REAL system — the actual MapReduce engine, smartFAM
// over the actual file service, real TCP through a token-bucket
// throttled link — as a miniature of the Fig. 9 experiment, measured in
// wall-clock. Sizes are MBs instead of GBs and the link is scaled down
// proportionally, so the data:bandwidth ratio (the quantity that decides
// offload-vs-fetch) matches the testbed's. It returns the measured
// elapsed-time figure plus the host-only/McSD speedup series.
//
// What the scale model can and cannot show on this machine: the data-
// movement effect (host-only pays the wire, offload does not) and the
// memory wall (native OOM under a constrained accountant) are real; the
// duo-vs-quad core effects are not measurable on fewer cores and remain
// the simulator's job.
type ScaleModelConfig struct {
	// Sizes are the corpus sizes to measure.
	Sizes []int64
	// LinkBps scales the testbed's 1 GbE down to laptop scale.
	LinkBps float64
	// PartitionBytes is the fragment size for the offloaded run.
	PartitionBytes int64
	// Workers is the in-process parallelism for both sides.
	Workers int
}

// DefaultScaleModelConfig keeps the full run under ~1 minute: 2-16 MB
// corpora over a 25 MB/s link with 1 MiB fragments.
func DefaultScaleModelConfig() ScaleModelConfig {
	return ScaleModelConfig{
		Sizes:          []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20},
		LinkBps:        25e6,
		PartitionBytes: 1 << 20,
		Workers:        2,
	}
}

// ScaleModelResult is the measured output.
type ScaleModelResult struct {
	// Elapsed has two series, "McSD offload" and "Host-only", in seconds
	// per corpus size (MB).
	Elapsed *metrics.Figure
	// Speedup is the host-only / offload ratio per size.
	Speedup *metrics.Figure
}

// RunScaleModel executes the scale model. It builds a one-process SD node
// (export + daemon + modules), mounts it through the throttled link, and
// measures both execution paths at every size.
func RunScaleModel(ctx context.Context, cfg ScaleModelConfig) (*ScaleModelResult, error) {
	if len(cfg.Sizes) == 0 {
		cfg = DefaultScaleModelConfig()
	}

	// --- SD node.
	dir, err := os.MkdirTemp("", "mcsd-scale-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	share := smartfam.DirFS(dir)
	reg := smartfam.NewRegistry(share)
	for _, m := range core.StandardModules(core.ModuleConfig{Store: core.DirStore(dir), Workers: cfg.Workers}) {
		if err := reg.Register(m); err != nil {
			return nil, err
		}
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	daemon := smartfam.NewDaemon(share, reg, smartfam.WithWorkers(cfg.Workers))
	go daemon.Run(dctx) //nolint:errcheck

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	srv := nfs.NewServer(dir)
	//mcsdlint:allow goroleak -- Serve returns when the deferred ln.Close() fires at experiment teardown, and the deferred srv.Shutdown() reaps its per-conn goroutines
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Shutdown()

	// --- Host mount through the scaled-down link.
	link := netsim.NewLink(netsim.Profile{
		Name: "scale-link", BandwidthBps: cfg.LinkBps, Latency: 100 * time.Microsecond,
	})
	mount, err := nfs.DialThrottled(ctx, ln.Addr().String(), 5*time.Second, link)
	if err != nil {
		return nil, err
	}
	defer mount.Close()

	rt := core.New()
	rt.AttachSD("sd0", mount)

	res := &ScaleModelResult{
		Elapsed: metrics.NewFigure("Scale model (real engine, measured): WC elapsed",
			"size(MB)", "seconds"),
		Speedup: metrics.NewFigure("Scale model (real engine, measured): Host-only vs McSD",
			"size(MB)", "speedup"),
	}
	offload := res.Elapsed.Line("McSD offload")
	hostOnly := res.Elapsed.Line("Host-only")
	speedup := res.Speedup.Line("speedup")

	for i, size := range cfg.Sizes {
		name := fmt.Sprintf("corpus-%d.txt", i)
		corpus := workloads.GenerateTextBytes(size, int64(100+i))
		// Staging is data placement, not part of either measured path.
		if err := mount.WriteFile(name, corpus); err != nil {
			return nil, err
		}
		xMB := float64(size) / (1 << 20)

		// Path 1: McSD offload — parameters out, small result back.
		//mcsdlint:allow simdet -- the scale model times the real engine; the measurement is the experiment
		start := time.Now()
		r, err := rt.Invoke(ctx, core.ModuleWordCount, core.WordCountParams{
			DataFile: name, PartitionBytes: cfg.PartitionBytes, TopN: 5,
		})
		if err != nil {
			return nil, fmt.Errorf("scale model offload at %d MB: %w", int(xMB), err)
		}
		//mcsdlint:allow simdet -- the scale model times the real engine; the measurement is the experiment
		offSec := time.Since(start).Seconds()
		var out core.WordCountOutput
		if err := core.Decode(r.Payload, &out); err != nil {
			return nil, err
		}

		// Path 2: host-only — stream every byte over the throttled wire.
		//mcsdlint:allow simdet -- the scale model times the real engine; the measurement is the experiment
		start = time.Now()
		reader, err := mount.OpenReader(name)
		if err != nil {
			return nil, err
		}
		hostRes, err := partition.Run(ctx, mapreduce.Config{Workers: cfg.Workers},
			workloads.WordCountSpec(), reader,
			partition.Options{FragmentSize: cfg.PartitionBytes}, workloads.WordCountMerge)
		reader.Close()
		if err != nil {
			return nil, fmt.Errorf("scale model host-only at %d MB: %w", int(xMB), err)
		}
		//mcsdlint:allow simdet -- the scale model times the real engine; the measurement is the experiment
		hostSec := time.Since(start).Seconds()

		// Results must agree or the comparison is meaningless.
		if len(hostRes.Pairs) != out.UniqueWords {
			return nil, fmt.Errorf("scale model result divergence at %d MB: %d vs %d unique words",
				int(xMB), len(hostRes.Pairs), out.UniqueWords)
		}

		offload.Add(xMB, offSec)
		hostOnly.Add(xMB, hostSec)
		if offSec > 0 {
			speedup.Add(xMB, hostSec/offSec)
		}
		// Free SD-side disk as we go.
		_ = mount.Remove(name)
	}
	return res, nil
}
