package mcsd_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/metrics"
	"mcsd/internal/nfs"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// startScheduledSDNode boots an SD node plus a "sleeper" module the test
// can hold open to fill the queue deterministically. depth > 0 hands the
// daemon a scheduler of that depth — the mcsdd/perfbench WithScheduler
// path; depth 0 lets NewDaemon build its own at the default depth. Either
// way the scheduler counts into the returned registry.
func startScheduledSDNode(t *testing.T, depth, workers int, started chan<- struct{}, release <-chan struct{}) (*sdNode, *metrics.Registry) {
	t.Helper()
	dir := t.TempDir()
	share := smartfam.DirFS(dir)
	reg := smartfam.NewRegistry(share)
	for _, m := range core.StandardModules(core.ModuleConfig{Store: core.DirStore(dir), Workers: workers}) {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	sleeper := smartfam.ModuleFunc{
		ModuleName: "sleeper",
		Fn: func(ctx context.Context, _ []byte) ([]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return []byte(`"slept"`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	if err := reg.Register(sleeper); err != nil {
		t.Fatal(err)
	}

	m := metrics.NewRegistry()
	opts := []smartfam.DaemonOption{
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithWorkers(workers),
		smartfam.WithMetrics(m),
	}
	if depth > 0 {
		sd := sched.New(sched.Config{MaxQueueDepth: depth, Workers: workers, Metrics: m},
			func(ctx context.Context, job *sched.Job) ([]byte, error) {
				m, err := reg.Lookup(job.Module)
				if err != nil {
					return nil, err
				}
				return m.Run(ctx, job.Payload)
			})
		opts = append(opts, smartfam.WithScheduler(sd))
	}

	ctx, cancel := context.WithCancel(context.Background())
	daemon := smartfam.NewDaemon(share, reg, opts...)
	go daemon.Run(ctx) //nolint:errcheck

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := nfs.NewServer(dir)
	go srv.Serve(ln) //nolint:errcheck

	node := &sdNode{dir: dir, addr: ln.Addr().String()}
	node.stop = func() {
		cancel()
		ln.Close()
		srv.Shutdown()
	}
	t.Cleanup(node.stop)
	return node, m
}

// TestIntegrationQueueFullBackpressure drives the full stack — host
// runtime, TCP mount, smartFAM log files, daemon, scheduler — into
// backpressure: with the single worker held and the queue full, one more
// request must come back as sched.ErrQueueFull at the host-side caller
// (acceptance criterion for the queue-full path), and the daemon must
// publish the rejection in its .queue snapshot. It runs against a
// scheduler passed with WithScheduler and against the one NewDaemon
// builds by default.
func TestIntegrationQueueFullBackpressure(t *testing.T) {
	for _, tc := range []struct {
		name       string
		depth      int // passed to startScheduledSDNode
		queueDepth int // the depth the daemon's scheduler runs at
	}{
		{"WithScheduler", 1, 1},
		{"default", 0, sched.DefaultMaxQueueDepth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			started := make(chan struct{}, tc.queueDepth+2)
			release := make(chan struct{})
			node, m := startScheduledSDNode(t, tc.depth, 1, started, release)

			mount, err := nfs.Dial(node.addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer mount.Close()

			rt := core.New(core.WithPollInterval(time.Millisecond))
			rt.AttachSD(node.addr, mount)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			type outcome struct {
				res *core.Result
				err error
			}
			results := make(chan outcome, tc.queueDepth+1)
			invoke := func() {
				res, err := rt.Invoke(ctx, "sleeper", struct{}{})
				results <- outcome{res, err}
			}

			// First request occupies the scheduler's only worker...
			go invoke()
			select {
			case <-started:
			case <-ctx.Done():
				t.Fatal("first sleeper never started")
			}
			// ...the next ones fill the queue...
			for i := 0; i < tc.queueDepth; i++ {
				go invoke()
			}
			waitFor(t, ctx, func() bool {
				return m.Gauge(metrics.SchedQueueDepth).Value() == int64(tc.queueDepth)
			})

			// ...so one more is shed, and the rejection survives the
			// smartFAM wire as a typed error the caller can match.
			_, err = rt.Invoke(ctx, "sleeper", struct{}{})
			if !errors.Is(err, sched.ErrQueueFull) {
				t.Fatalf("err = %v, want sched.ErrQueueFull", err)
			}
			if rt.Metrics().Counter("core.queue_full_rejects").Value() != 1 {
				t.Fatal("queue-full rejection not counted on the host")
			}
			var st sched.Status
			waitFor(t, ctx, func() bool {
				data, err := smartfam.ReadFrom(mount, smartfam.QueueStatusName, 0)
				if err != nil || len(data) == 0 {
					return false
				}
				st, err = sched.UnmarshalStatus(data)
				return err == nil && st.QueueFullRejects > 0
			})
			if st.MaxQueueDepth != tc.queueDepth || st.Workers != 1 {
				t.Fatalf("published status = %+v, want depth %d, 1 worker", st, tc.queueDepth)
			}

			// Backpressure is transient: releasing the sleepers completes
			// every admitted request.
			close(release)
			for i := 0; i < tc.queueDepth+1; i++ {
				select {
				case o := <-results:
					if o.err != nil {
						t.Fatalf("admitted invoke failed: %v", o.err)
					}
					if string(o.res.Payload) != `"slept"` {
						t.Fatalf("payload = %q", o.res.Payload)
					}
				case <-ctx.Done():
					t.Fatal("admitted invokes never completed")
				}
			}
		})
	}
}

// TestIntegrationRequeueAfterShed: a shed is backpressure, not an answer.
// The host requeues a shed request on the same node under the same
// correlation ID; once the queue has room the node must admit it afresh
// rather than replay the shed from its dedupe cache.
func TestIntegrationRequeueAfterShed(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	node, m := startScheduledSDNode(t, 1, 1, started, release)

	mount, err := nfs.Dial(node.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()

	rt := core.New(core.WithPollInterval(time.Millisecond))
	rt.AttachSD(node.addr, mount)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	results := make(chan error, 3)
	invoke := func() {
		res, err := rt.Invoke(ctx, "sleeper", struct{}{})
		if err == nil && string(res.Payload) != `"slept"` {
			err = fmt.Errorf("payload = %q", res.Payload)
		}
		results <- err
	}

	// Hold the only worker, fill the depth-1 queue, then send a third
	// request that the node must shed.
	go invoke()
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("first sleeper never started")
	}
	go invoke()
	waitFor(t, ctx, func() bool { return m.Gauge(metrics.SchedQueueDepth).Value() == 1 })
	go invoke()
	rejects := m.Counter(metrics.SchedQueueFullRejects)
	waitFor(t, ctx, func() bool { return rejects.Value() >= 1 })

	// Room opens while the host is still requeueing: every request,
	// the shed one included, must complete.
	close(release)
	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("invoke failed after the queue drained: %v (%d sheds)", err, rejects.Value())
			}
		case <-ctx.Done():
			t.Fatal("invokes never completed")
		}
	}
	if got := m.Counter(metrics.SchedCompleted).Value(); got != 3 {
		t.Fatalf("scheduler completed %d jobs, want 3 — the shed request ran once", got)
	}
}

// TestIntegrationQueueStatusPublished reads the scheduler status the
// daemon publishes on the share — the transport behind `mcsdctl queue`.
func TestIntegrationQueueStatusPublished(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	node, _ := startScheduledSDNode(t, 4, 2, started, release)

	mount, err := nfs.Dial(node.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var st sched.Status
	waitFor(t, ctx, func() bool {
		data, err := smartfam.ReadFrom(mount, smartfam.QueueStatusName, 0)
		if err != nil || len(data) == 0 {
			return false
		}
		st, err = sched.UnmarshalStatus(data)
		return err == nil
	})
	if st.MaxQueueDepth != 4 || st.Workers != 2 {
		t.Fatalf("published status = %+v, want depth 4, workers 2", st)
	}
	if st.Format() == "" {
		t.Fatal("status Format is empty")
	}
}

// waitFor polls cond until it holds or ctx expires.
func waitFor(t *testing.T, ctx context.Context, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatal("condition never held")
		case <-time.After(2 * time.Millisecond):
		}
	}
}
