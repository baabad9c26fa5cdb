// Command mcsdd runs a McSD smart-storage node: it exports a directory
// over the built-in networked file service (the testbed's NFS role) and
// serves the preloaded data-intensive modules — word count, string match,
// matrix multiplication — through the smartFAM log-file mechanism.
//
// Usage:
//
//	mcsdd -dir /srv/mcsd -listen :9000 -workers 2
//
// A host node mounts the export with mcsdctl (or the core.Runtime API),
// stages data files into it, and invokes modules; mcsdd notices parameter
// writes in the module log files and runs the module over its local copy
// of the data — no bulk data crosses the network.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/memsim"
	"mcsd/internal/metrics"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
	"mcsd/internal/units"

	nfssrv "mcsd/internal/nfs"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("mcsdd: %v", err)
	}
}

func run() error {
	var (
		dir     = flag.String("dir", "", "directory to export (share + data root); required")
		listen  = flag.String("listen", "127.0.0.1:9000", "address of the file-service export")
		workers = flag.Int("workers", 2, "cores dedicated to data-intensive modules (duo-core SD default)")
		memFlag = flag.String("mem", "", "optional memory limit for module admission control (e.g. 2G)")
		poll    = flag.Duration("poll", smartfam.DefaultPollInterval, "smartFAM daemon tick: its sweep period while no push stream is live")
		compact = flag.Duration("compact", 5*time.Minute, "compact every module log this often, under traffic or not (0 disables)")
		queue   = flag.Int("queue", sched.DefaultMaxQueueDepth, "job queue depth before requests are rejected with backpressure (0 = the default)")
		journal = flag.String("journal", "auto", "crash-recovery journal path on local disk; \"auto\" = <dir>/.journal, \"none\" disables")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		return fmt.Errorf("-dir is required")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fmt.Errorf("creating export dir: %w", err)
	}

	var acct *memsim.Accountant
	if *memFlag != "" {
		capBytes, err := units.ParseBytes(*memFlag)
		if err != nil {
			return err
		}
		cfg := memsim.DefaultConfig()
		cfg.CapacityBytes = capBytes
		acct = memsim.NewAccountant(cfg)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	srv := nfssrv.NewServer(*dir)
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Printf("mcsdd: file service: %v", err)
		}
	}()
	log.Printf("mcsdd: exporting %s on %s", *dir, ln.Addr())

	// The daemon's own share I/O LOOPS BACK through the file service, so
	// response appends (and registry writes) raise the server's change
	// notifications for pushed host watches — the fam v2 topology. Should the
	// loopback dial fail, the daemon keeps the direct local-directory path
	// and hosts poll (degraded mode).
	var share smartfam.FS = smartfam.DirFS(*dir)
	loop, err := nfssrv.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		log.Printf("mcsdd: notify loopback dial failed (%v); hosts fall back to polling", err)
		// Hosts append through the file service's append lock, which a
		// replace through the directory does not hold: compacting here
		// could lose a request.
		if *compact > 0 {
			log.Printf("mcsdd: log compaction off: it needs the loopback")
			*compact = 0
		}
	} else {
		defer loop.Close()
		share = loop
		log.Printf("mcsdd: share I/O looped back through the file service (push notifications on)")
	}
	reg := smartfam.NewRegistry(share)
	modCfg := core.ModuleConfig{Store: core.DirStore(*dir), Workers: *workers, Memory: acct}
	for _, m := range core.StandardModules(modCfg) {
		if err := reg.Register(m); err != nil {
			return fmt.Errorf("registering %s: %w", m.Name(), err)
		}
	}
	log.Printf("mcsdd: preloaded modules: %v", reg.Names())

	daemonOpts := []smartfam.DaemonOption{smartfam.WithPollInterval(*poll)}
	switch *journal {
	case "none":
	case "auto":
		jpath := filepath.Join(*dir, ".journal")
		daemonOpts = append(daemonOpts, smartfam.WithJournal(jpath))
		log.Printf("mcsdd: crash-recovery journal at %s", jpath)
	default:
		daemonOpts = append(daemonOpts, smartfam.WithJournal(*journal))
		log.Printf("mcsdd: crash-recovery journal at %s", *journal)
	}
	// The scheduler sits between the smartFAM log files and the module
	// registry: per-module fair ordering, memory-aware admission against
	// the node's budget, and queue-full backpressure to callers. It counts
	// into the daemon's registry, so the published status carries both.
	met := metrics.NewRegistry()
	sd := sched.New(sched.Config{
		MaxQueueDepth: *queue,
		Workers:       *workers,
		Memory:        acct,
		Metrics:       met,
	}, func(ctx context.Context, job *sched.Job) ([]byte, error) {
		m, err := reg.Lookup(job.Module)
		if err != nil {
			return nil, err
		}
		return m.Run(ctx, job.Payload)
	})
	daemonOpts = append(daemonOpts,
		smartfam.WithMetrics(met),
		smartfam.WithScheduler(sd),
		smartfam.WithFootprintEstimator(core.NewFootprintEstimator(modCfg.Store, acct)))
	log.Printf("mcsdd: scheduler queue depth %d, %d workers", sd.Status().MaxQueueDepth, *workers)
	daemon := smartfam.NewDaemon(share, reg, daemonOpts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Module logs grow one record per parameter write and one per result;
	// compact them every interval. A compaction is one conditional replace
	// through the file service, safe under traffic: an append that races
	// it makes it re-read the log.
	if *compact > 0 {
		go func() {
			ticker := time.NewTicker(*compact)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if n, err := reg.CompactAll(); err != nil {
						log.Printf("mcsdd: log compaction: %v", err)
					} else if n > 0 {
						log.Printf("mcsdd: compacted %d module logs", n)
					}
				}
			}
		}()
	}

	log.Printf("mcsdd: smartFAM daemon running (%d workers); Ctrl-C to stop", *workers)
	err = daemon.Run(ctx)
	ln.Close()
	srv.Shutdown()
	if err != nil && ctx.Err() != nil {
		log.Printf("mcsdd: shutting down")
		return nil
	}
	return err
}
