package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// Every workload runs over the same modelled interconnect: the testbed's
// 1 GbE switch with 10 ms of propagation delay each way, so a strict
// request/response exchange costs one 20 ms round trip.
const (
	linkOneWay = 10 * time.Millisecond
	linkRTT    = 2 * linkOneWay
	// schedQueue and nodeWorkers are mcsdd's -queue and -workers defaults.
	schedQueue  = sched.DefaultMaxQueueDepth
	nodeWorkers = 2
)

// nodeOpts is what differs between the SD nodes of the four workloads.
type nodeOpts struct {
	// workers bounds both the daemon's concurrent invocations and each
	// module's MapReduce workers (mcsdd's -workers), clamped to nproc by
	// the caller.
	workers int
	// diskBps, when > 0, makes the node's modules read through a private
	// self-mount throttled to that rate — the modelled local disk of
	// fleet_wc. Zero reads the export directory directly, as mcsdd does.
	diskBps float64
	// extra modules are registered next to core.StandardModules (the echo
	// module of invoke_open).
	extra []smartfam.Module
	// tr, when set, wraps every registered module and the data store in
	// the benchmark's timing decorators. nil leaves the plain objects.
	tr *tracer
}

// node is one in-process SD node assembled exactly as cmd/mcsdd assembles
// itself at its defaults plus -batch: one file service over the export
// directory, the daemon's share looped back through an undelayed listener
// of that service (so its response appends raise push notifications), the
// standard modules over the export directory, the crash-recovery journal
// at <dir>/.journal, the scheduler at queue 64 x 2 workers, and response
// group commit. The host reaches it only through mount, one connection
// over the modelled link.
type node struct {
	name    string
	dir     string
	srv     *nfs.Server
	daemon  *smartfam.Daemon
	sched   *sched.Scheduler
	journal string
	mount   *nfs.Client // the host's view of the share, over the modelled link

	closers []func()
}

// startNode boots an SD node over dir (which already holds its staged
// data) and mounts it from the host through hostLink.
func startNode(ctx context.Context, name, dir string, hostLink *netsim.Link, opts nodeOpts) (n *node, err error) {
	n = &node{name: name, dir: dir, srv: nfs.NewServer(dir), journal: filepath.Join(dir, ".journal")}
	defer func() {
		if err != nil {
			n.close()
			n, err = nil, fmt.Errorf("node %s: %w", name, err)
		}
	}()
	n.closers = append(n.closers, n.srv.Shutdown)

	nodeCtx, cancel := context.WithCancel(ctx)
	n.closers = append(n.closers, cancel)

	// Two listeners of the one file service: the SD-internal path (daemon
	// loopback, modelled disk) and the host path, whose server-to-host
	// direction pays the propagation delay.
	lnLocal, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return n, err
	}
	n.closers = append(n.closers, func() { lnLocal.Close() })
	go n.srv.Serve(lnLocal) //nolint:errcheck // returns when close() shuts the listener
	lnWan, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return n, err
	}
	n.closers = append(n.closers, func() { lnWan.Close() })
	go n.srv.Serve(netsim.DelayListener(nodeCtx, lnWan, linkOneWay)) //nolint:errcheck // as above

	loop, err := nfs.Dial(lnLocal.Addr().String(), 5*time.Second)
	if err != nil {
		return n, fmt.Errorf("daemon loopback dial: %w", err)
	}
	n.closers = append(n.closers, func() { loop.Close() })

	var store core.DataStore = core.DirStore(dir)
	if opts.diskBps > 0 {
		diskLink := netsim.NewLink(netsim.Profile{Name: "disk-sim", BandwidthBps: opts.diskBps})
		disk, err := nfs.DialThrottled(nodeCtx, lnLocal.Addr().String(), 5*time.Second, diskLink)
		if err != nil {
			return n, fmt.Errorf("disk self-mount: %w", err)
		}
		n.closers = append(n.closers, func() { disk.Close() })
		store = core.RemoteDataStore(disk)
	}
	if opts.tr != nil {
		store = &timedStore{inner: store, tr: opts.tr, node: name}
	}

	var share smartfam.FS = loop
	reg := smartfam.NewRegistry(share)
	modCfg := core.ModuleConfig{Store: store, Workers: opts.workers}
	for _, m := range append(core.StandardModules(modCfg), opts.extra...) {
		if opts.tr != nil {
			m = &timedModule{inner: m, tr: opts.tr, node: name}
		}
		if err := reg.Register(m); err != nil {
			return n, fmt.Errorf("registering %s: %w", m.Name(), err)
		}
	}
	n.sched = sched.New(sched.Config{MaxQueueDepth: schedQueue, Workers: opts.workers},
		func(ctx context.Context, job *sched.Job) ([]byte, error) {
			m, err := reg.Lookup(job.Module)
			if err != nil {
				return nil, err
			}
			return m.Run(ctx, job.Payload)
		})
	n.daemon = smartfam.NewDaemon(share, reg,
		smartfam.WithPollInterval(smartfam.DefaultPollInterval),
		smartfam.WithWorkers(opts.workers),
		smartfam.WithResponseBatching(0, 0),
		smartfam.WithJournal(n.journal),
		smartfam.WithScheduler(n.sched),
		smartfam.WithFootprintEstimator(core.NewFootprintEstimator(store, nil)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n.daemon.Run(nodeCtx) // returns ctx.Err() at close()
	}()
	n.closers = append(n.closers, func() { cancel(); <-done })

	raw, err := net.DialTimeout("tcp", lnWan.Addr().String(), 5*time.Second)
	if err != nil {
		return n, fmt.Errorf("host dial: %w", err)
	}
	n.mount = nfs.NewClient(netsim.Throttle(nodeCtx, netsim.Delay(nodeCtx, raw, linkOneWay), hostLink.BtoA, hostLink.AtoB))
	n.closers = append(n.closers, func() { n.mount.Close() })
	return n, nil
}

// close stops the node in reverse start order and waits for its daemon.
func (n *node) close() {
	for i := len(n.closers) - 1; i >= 0; i-- {
		n.closers[i]()
	}
	n.closers = nil
}

// stage writes one input file below the node's export directory before
// the node boots, as a deployment would have the data on the SD's disk.
func stage(dir, name string, data []byte) error {
	p := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// measureRTT times a handful of Stat round trips through the modelled
// link and returns the fastest, in milliseconds: the anchor for reading
// every latency in RTTs, and the check that the link model is in force.
// The minimum, as for any propagation delay: a probe can only be slowed
// by the freshly booted node's own start-up work, never sped up.
func measureRTT(fs smartfam.FS, name string) (float64, error) {
	best := 0.0
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		if _, _, err := fs.Stat(name); err != nil {
			return 0, fmt.Errorf("rtt probe: %w", err)
		}
		if ms := toMs(time.Since(t0)); i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}
