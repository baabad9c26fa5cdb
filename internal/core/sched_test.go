package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// scheduledSD is fakeSD with the daemon routing every request through a
// job scheduler — the mcsdd -queue path.
func scheduledSD(t *testing.T, cfg sched.Config, mods ...smartfam.Module) (smartfam.FS, *sched.Scheduler) {
	t.Helper()
	share := smartfam.DirFS(t.TempDir())
	reg := smartfam.NewRegistry(share)
	for _, m := range mods {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	s := sched.New(cfg, func(ctx context.Context, job *sched.Job) ([]byte, error) {
		m, err := reg.Lookup(job.Module)
		if err != nil {
			return nil, err
		}
		return m.Run(ctx, job.Payload)
	})
	runDaemon(t, smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithWorkers(4), smartfam.WithScheduler(s)))
	return share, s
}

func TestRunThroughScheduler(t *testing.T) {
	share, s := scheduledSD(t, sched.Config{Workers: 1}, echoMod("echo"))
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", share)

	res, err := rt.Run(testCtx(t), Job{Module: "echo", Params: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd1" || string(res.Payload) != `ok:"hi"` {
		t.Fatalf("result = %+v payload %q, want offload through the node's scheduler", res, res.Payload)
	}
	if st := s.Status(); st.Completed != 1 {
		t.Fatalf("scheduler completed = %d, want the offload routed through it", st.Completed)
	}
}

func TestRunSchedulerQueueFullSurfaces(t *testing.T) {
	// Depth 1, single worker held by a blocking job: the node's queue fills
	// and a further Run fails with the typed backpressure error, even though
	// the runtime has no other node to try.
	release := make(chan struct{})
	defer close(release)
	blocker := smartfam.ModuleFunc{
		ModuleName: "echo",
		Fn: func(ctx context.Context, p []byte) ([]byte, error) {
			select {
			case <-release:
				return p, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	share, s := scheduledSD(t, sched.Config{Workers: 1, MaxQueueDepth: 1}, blocker)
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", share)

	ctx := testCtx(t)
	invoke := func() { _, _ = rt.Invoke(ctx, "echo", "held") }
	wait := func(cond func(sched.Status) bool) {
		t.Helper()
		for !cond(s.Status()) {
			select {
			case <-ctx.Done():
				t.Fatal("scheduler never reached the expected state")
			case <-time.After(time.Millisecond):
			}
		}
	}
	// First invoke occupies the worker, then the second fills the
	// depth-1 queue — sequenced so they never race for the queue slot.
	go invoke()
	wait(func(st sched.Status) bool { return st.Running == 1 })
	go invoke()
	wait(func(st sched.Status) bool { return st.Queued == 1 })

	_, err := rt.Invoke(ctx, "echo", "rejected")
	if !errors.Is(err, sched.ErrQueueFull) || errors.Is(err, ErrNoExecutor) {
		t.Fatalf("err = %v, want sched.ErrQueueFull, not ErrNoExecutor", err)
	}
}

func TestInvokeMapsWireQueueFull(t *testing.T) {
	// A node's scheduler rejection arrives as a module error record whose
	// message carries the queue-full text; the runtime must re-type it so
	// errors.Is works at the caller, and must not fail the node over —
	// with one node as with two.
	shedding := smartfam.ModuleFunc{
		ModuleName: "busy",
		Fn: func(context.Context, []byte) ([]byte, error) {
			return nil, sched.ErrQueueFull
		},
	}
	for _, n := range []int{1, 2} {
		rt := New(WithPollInterval(time.Millisecond))
		for i := 0; i < n; i++ {
			rt.AttachSD(string(rune('a'+i)), fakeSD(t, shedding))
		}
		_, err := rt.Invoke(testCtx(t), "busy", nil)
		if !errors.Is(err, sched.ErrQueueFull) || errors.Is(err, ErrNoExecutor) {
			t.Fatalf("%d nodes: err = %v, want sched.ErrQueueFull across the wire", n, err)
		}
		if rt.Metrics().Counter("core.failovers").Value() != 0 {
			t.Fatalf("%d nodes: queue-full burned a failover", n)
		}
		if rt.Metrics().Counter("core.queue_full_rejects").Value() != 1 {
			t.Fatalf("%d nodes: queue-full rejection not counted once", n)
		}
	}
}

func TestRunSchedulerCancelledSubmit(t *testing.T) {
	share, _ := scheduledSD(t, sched.Config{Workers: 1}, echoMod("echo"))
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", share)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Invoke(ctx, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invoke = %v, want context.Canceled", err)
	}
}
