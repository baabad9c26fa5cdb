package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/memsim"
	"mcsd/internal/trace"
)

// startSched runs a scheduler until the test ends.
func startSched(t *testing.T, cfg Config, exec Executor) *Scheduler {
	t.Helper()
	s := New(cfg, exec)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx) //nolint:errcheck // terminates with ctx
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return s
}

// waitStatus polls the scheduler until its snapshot satisfies cond.
func waitStatus(t *testing.T, s *Scheduler, cond func(Status) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.Status()) {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler stuck at %+v", s.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

func oneRunning(st Status) bool { return st.Running == 1 }

// budget returns an accountant whose usable RAM is exactly n bytes.
func budget(n int64) *memsim.Accountant {
	return memsim.NewAccountant(memsim.Config{CapacityBytes: n, UsableFraction: 1})
}

// TestMemoryAdmissionSerializesBigJobs is acceptance criterion (a): two
// jobs whose combined footprint exceeds the memory budget run serially,
// while a small third job is admitted alongside whichever big job holds
// the budget.
func TestMemoryAdmissionSerializesBigJobs(t *testing.T) {
	var mu sync.Mutex
	resident := int64(0)
	peak := int64(0)
	release := make(chan struct{})
	smallDone := make(chan struct{})
	// Admission reserves a job's footprint before its worker enters exec,
	// so an admitted big job may not be resident yet when the small one
	// runs. The small job waits for a big one to be resident: it overlaps
	// only what the scheduler admitted beside it, and the peak is measured
	// rather than raced.
	bigResident := make(chan struct{})
	var bigOnce sync.Once

	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		fp := j.footprint()
		mu.Lock()
		resident += fp
		if resident > peak {
			peak = resident
		}
		mu.Unlock()
		if j.Tenant == "small" {
			select {
			case <-bigResident:
			case <-ctx.Done():
			}
			close(smallDone)
		} else {
			bigOnce.Do(func() { close(bigResident) })
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		mu.Lock()
		resident -= fp
		mu.Unlock()
		return []byte("ok"), nil
	}

	// Budget 100: two 60-footprint jobs can never co-schedule, but a
	// 10-footprint job fits alongside either.
	s := startSched(t, Config{Workers: 3, Memory: budget(100)}, exec)
	ctx := context.Background()
	big1, err := s.Submit(ctx, &Job{Module: "wc", Tenant: "big", InputBytes: 20, FootprintFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	big2, err := s.Submit(ctx, &Job{Module: "wc", Tenant: "big", InputBytes: 20, FootprintFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(ctx, &Job{Module: "sm", Tenant: "small", InputBytes: 5, FootprintFactor: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The small job completes while a big job still holds the budget.
	select {
	case <-smallDone:
	case <-time.After(5 * time.Second):
		t.Fatal("small job was never admitted alongside the big one")
	}
	if _, err := small.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Exactly one big job is running; the other is still queued, waiting
	// for memory rather than failing.
	waitStatus(t, s, oneRunning)
	if got := s.Status().Queued; got != 1 {
		t.Fatalf("queued jobs = %d, want the second big job waiting", got)
	}
	close(release)
	if _, err := big1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := big2.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if peak > 100 {
		t.Fatalf("resident footprint peaked at %d, budget 100 — big jobs co-scheduled", peak)
	}
	if peak < 70 {
		t.Fatalf("resident footprint peaked at %d; small job never overlapped a big one", peak)
	}
}

// TestMemoryBudgetFromAccountant wires the budget from a memsim config.
func TestMemoryBudgetFromAccountant(t *testing.T) {
	cfg := memsim.DefaultConfig()
	acct := memsim.NewAccountant(cfg)
	s := New(Config{Memory: acct}, func(ctx context.Context, j *Job) ([]byte, error) { return nil, nil })
	if s.budget != cfg.Usable() {
		t.Fatalf("budget = %d, want usable RAM %d", s.budget, cfg.Usable())
	}
}

// TestOversizedJobAdmittedAlone: a job larger than the whole budget runs
// solo (partitioning, not queueing, is the fix for those), never alongside
// anything else.
func TestOversizedJobAdmittedAlone(t *testing.T) {
	var concurrent atomic.Int32
	var maxConcurrent atomic.Int32
	block := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		n := concurrent.Add(1)
		for {
			old := maxConcurrent.Load()
			if n <= old || maxConcurrent.CompareAndSwap(old, n) {
				break
			}
		}
		<-block
		concurrent.Add(-1)
		return nil, nil
	}
	s := startSched(t, Config{Workers: 2, Memory: budget(100)}, exec)
	ctx := context.Background()
	huge, _ := s.Submit(ctx, &Job{Module: "wc", InputBytes: 500})
	small, _ := s.Submit(ctx, &Job{Module: "wc", InputBytes: 10})
	waitStatus(t, s, oneRunning)
	time.Sleep(20 * time.Millisecond) // give the small job a chance to sneak in
	if st := s.Status(); st.Running != 1 || st.Queued != 1 {
		t.Fatalf("status %+v while oversized job runs, want the small job queued", st)
	}
	close(block)
	if _, err := huge.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if maxConcurrent.Load() != 1 {
		t.Fatalf("max concurrency = %d, want 1", maxConcurrent.Load())
	}
}

// TestQueueFullBackpressure is the unit half of acceptance criterion (b):
// a full queue rejects the submission with a typed, wire-recognisable
// error.
func TestQueueFullBackpressure(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	s := startSched(t, Config{Workers: 1, MaxQueueDepth: 1}, exec)
	ctx := context.Background()
	if _, err := s.Submit(ctx, &Job{Module: "wc"}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, oneRunning)
	if _, err := s.Submit(ctx, &Job{Module: "wc"}); err != nil {
		t.Fatalf("second submit (queued) failed: %v", err)
	}
	_, err := s.Submit(ctx, &Job{Module: "wc"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit error = %v, want ErrQueueFull", err)
	}
	if !IsQueueFullMessage(err.Error()) {
		t.Fatalf("queue-full error text %q not wire-recognisable", err)
	}
	if got := s.Status().QueueFullRejects; got != 1 {
		t.Fatalf("QueueFullRejects = %d, want 1", got)
	}
}

// TestSubmitCtxCancelDropsQueuedJob: cancelling the submission context of
// a queued job also keeps it away from the engine.
func TestSubmitCtxCancelDropsQueuedJob(t *testing.T) {
	var ran sync.Map
	block := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		ran.Store(j.ID, true)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	s := startSched(t, Config{Workers: 1}, exec)
	first, _ := s.Submit(context.Background(), &Job{Module: "wc", ID: "first"})
	waitStatus(t, s, oneRunning)
	jctx, jcancel := context.WithCancel(context.Background())
	victim, _ := s.Submit(jctx, &Job{Module: "wc", ID: "victim"})
	jcancel()
	close(block)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("victim Wait error = %v, want ErrCancelled", err)
	}
	if _, hit := ran.Load("victim"); hit {
		t.Fatal("ctx-cancelled queued job reached the engine")
	}
}

// TestCancelRunningJob: cancelling the submit context of a running job
// propagates into the executor's ctx.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := startSched(t, Config{Workers: 1}, exec)
	jctx, jcancel := context.WithCancel(context.Background())
	h, _ := s.Submit(jctx, &Job{Module: "wc"})
	<-started
	jcancel()
	_, err := h.Wait(context.Background())
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if got := s.Status().Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestWeightedFairOrdering: with the worker busy, a tenant that queued
// two jobs behind six of another's is not served FIFO behind them — the
// tenants alternate, each weighing one.
func TestWeightedFairOrdering(t *testing.T) {
	var order []string
	var mu sync.Mutex
	gate := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		mu.Lock()
		order = append(order, j.Tenant)
		mu.Unlock()
		<-gate
		return nil, nil
	}
	s := startSched(t, Config{Workers: 1}, exec)
	ctx := context.Background()
	// Fill both tenant queues while the first job runs.
	first, _ := s.Submit(ctx, &Job{Module: "m", Tenant: "warmup"})
	waitStatus(t, s, oneRunning)
	handles := []*Handle{first}
	for _, tn := range []string{"busy", "busy", "busy", "busy", "busy", "busy", "quiet", "quiet"} {
		h, err := s.Submit(ctx, &Job{Module: "m", Tenant: tn})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for range handles {
		gate <- struct{}{}
	}
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := "[warmup busy quiet busy quiet busy busy busy busy]"
	if fmt.Sprint(order) != want {
		t.Fatalf("dispatch order %v, want %s", order, want)
	}
}

// TestPanicGuard: a panicking executor fails its job, not the scheduler.
func TestPanicGuard(t *testing.T) {
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		if j.ID == "bomb" {
			panic("kaboom")
		}
		return []byte("fine"), nil
	}
	s := startSched(t, Config{Workers: 1}, exec)
	bomb, _ := s.Submit(context.Background(), &Job{Module: "m", ID: "bomb"})
	if _, err := bomb.Wait(context.Background()); err == nil {
		t.Fatal("panicking job reported success")
	}
	ok, _ := s.Submit(context.Background(), &Job{Module: "m", ID: "ok"})
	if payload, err := ok.Wait(context.Background()); err != nil || string(payload) != "fine" {
		t.Fatalf("scheduler dead after panic: (%q, %v)", payload, err)
	}
}

// TestStopDrainsQueued: stopping the scheduler fails queued jobs instead
// of leaving their waiters hanging.
func TestStopDrainsQueued(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	s := New(Config{Workers: 1}, exec)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); s.Run(ctx) }() //nolint:errcheck
	if _, err := s.Submit(context.Background(), &Job{Module: "m"}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, oneRunning)
	queued, _ := s.Submit(context.Background(), &Job{Module: "m"})
	cancel()
	<-runDone
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("queued job after stop: %v, want ErrStopped", err)
	}
	if _, err := s.Submit(context.Background(), &Job{Module: "m"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: %v, want ErrStopped", err)
	}
}

// TestTraceRecordsQueueingDelay: the queued phase appears as a span so
// the Gantt renderer shows scheduling delay.
func TestTraceRecordsQueueingDelay(t *testing.T) {
	tr := trace.New()
	block := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	s := startSched(t, Config{Workers: 1, Tracer: tr}, exec)
	ctx := context.Background()
	first, _ := s.Submit(ctx, &Job{Module: "m"})
	waitStatus(t, s, oneRunning)
	second, _ := s.Submit(ctx, &Job{Module: "m"})
	time.Sleep(10 * time.Millisecond)
	close(block)
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("trace roots = %d, want 2", len(roots))
	}
	var sawQueued, sawRunning bool
	for _, c := range roots[1].Children() {
		switch c.Name {
		case "queued":
			sawQueued = true
			if c.Duration() < 5*time.Millisecond {
				t.Fatalf("queued span of delayed job only %v", c.Duration())
			}
		case "running":
			sawRunning = true
		}
	}
	if !sawQueued || !sawRunning {
		t.Fatalf("second job missing queued/running spans: %v", roots[1].Children())
	}
}

// TestStatusSnapshotRoundTrips through the share encoding.
func TestStatusSnapshotRoundTrips(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	s := startSched(t, Config{Workers: 1, MaxQueueDepth: 8, Memory: budget(1000)}, exec)
	ctx := context.Background()
	first, _ := s.Submit(ctx, &Job{Module: "wc", Tenant: "alpha", InputBytes: 100, FootprintFactor: 3})
	waitStatus(t, s, oneRunning)
	if _, err := s.Submit(ctx, &Job{Module: "sm", Tenant: "beta"}); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Running != 1 || st.Queued != 1 || st.ReservedBytes != 300 {
		t.Fatalf("status = %+v, want 1 running, 1 queued, 300 reserved", st)
	}
	data, err := MarshalStatus(st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalStatus(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Running != st.Running || back.Queued != st.Queued || back.ReservedBytes != st.ReservedBytes {
		t.Fatalf("round trip %+v != %+v", back, st)
	}
	if back.Format() == "" {
		t.Fatal("empty formatted status")
	}
	close(block)
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}
