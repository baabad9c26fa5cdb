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

func waitState(t *testing.T, h *Handle, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v, want %v", h.Job().ID, h.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
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
	s := startSched(t, Config{Workers: 3, BudgetBytes: 100}, exec)
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
	waitState(t, big1, StateRunning)
	if got := big2.State(); got != StateQueued {
		t.Fatalf("second big job state = %v, want queued", got)
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
	s := startSched(t, Config{Workers: 2, BudgetBytes: 100}, exec)
	ctx := context.Background()
	huge, _ := s.Submit(ctx, &Job{Module: "wc", InputBytes: 500})
	small, _ := s.Submit(ctx, &Job{Module: "wc", InputBytes: 10})
	waitState(t, huge, StateRunning)
	time.Sleep(20 * time.Millisecond) // give the small job a chance to sneak in
	if got := small.State(); got != StateQueued {
		t.Fatalf("small job state = %v while oversized job runs, want queued", got)
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
	first, err := s.Submit(ctx, &Job{Module: "wc"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateRunning)
	if _, err := s.Submit(ctx, &Job{Module: "wc"}); err != nil {
		t.Fatalf("second submit (queued) failed: %v", err)
	}
	_, err = s.Submit(ctx, &Job{Module: "wc"})
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

// TestCancelQueuedNeverRuns is acceptance criterion (c): a job cancelled
// while queued never reaches the engine.
func TestCancelQueuedNeverRuns(t *testing.T) {
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
	ctx := context.Background()
	first, _ := s.Submit(ctx, &Job{Module: "wc", ID: "first"})
	waitState(t, first, StateRunning)
	victim, _ := s.Submit(ctx, &Job{Module: "wc", ID: "victim"})
	victim.Cancel()
	if _, err := victim.Wait(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled job Wait error = %v, want ErrCancelled", err)
	}
	close(block)
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, hit := ran.Load("victim"); hit {
		t.Fatal("cancelled queued job reached the engine")
	}
	if got := victim.State(); got != StateCancelled {
		t.Fatalf("victim state = %v, want cancelled", got)
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
	waitState(t, first, StateRunning)
	jctx, jcancel := context.WithCancel(context.Background())
	victim, _ := s.Submit(jctx, &Job{Module: "wc", ID: "victim"})
	jcancel()
	close(block)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Wait(context.Background()); err == nil {
		t.Fatal("victim completed despite cancelled submit context")
	}
	if _, hit := ran.Load("victim"); hit {
		t.Fatal("ctx-cancelled queued job reached the engine")
	}
}

// TestCancelRunningJob propagates cancellation into the executor's ctx.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := startSched(t, Config{Workers: 1}, exec)
	h, _ := s.Submit(context.Background(), &Job{Module: "wc"})
	<-started
	h.Cancel()
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Wait error = %v, want ErrCancelled", err)
	}
}

// TestWeightedFairOrdering: with the worker busy, queued jobs from a
// weight-2 tenant dispatch twice as often as a weight-1 tenant's.
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
	s := startSched(t, Config{Workers: 1, TenantWeights: map[string]float64{"gold": 2, "bronze": 1}}, exec)
	ctx := context.Background()
	// Fill both tenant queues while the first job runs.
	first, _ := s.Submit(ctx, &Job{Module: "m", Tenant: "warmup"})
	waitState(t, first, StateRunning)
	var handles []*Handle
	for i := 0; i < 6; i++ {
		h, err := s.Submit(ctx, &Job{Module: "m", Tenant: "gold"})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i := 0; i < 6; i++ {
		h, err := s.Submit(ctx, &Job{Module: "m", Tenant: "bronze"})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i := 0; i < 13; i++ {
		gate <- struct{}{}
	}
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// In the first 6 dispatches after the warmup, gold (weight 2) should
	// appear ~4 times to bronze's ~2.
	gold := 0
	for _, tn := range order[1:7] {
		if tn == "gold" {
			gold++
		}
	}
	if gold < 3 || gold > 5 {
		t.Fatalf("gold got %d of the first 6 slots, want ~4 (order %v)", gold, order)
	}
}

// TestPriorityOverride: a high-priority job jumps every queue, including
// its own tenant's FIFO.
func TestPriorityOverride(t *testing.T) {
	var order []string
	var mu sync.Mutex
	gate := make(chan struct{})
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
		<-gate
		return nil, nil
	}
	s := startSched(t, Config{Workers: 1}, exec)
	ctx := context.Background()
	first, _ := s.Submit(ctx, &Job{Module: "m", ID: "warmup"})
	waitState(t, first, StateRunning)
	a, _ := s.Submit(ctx, &Job{Module: "m", ID: "a", Tenant: "t"})
	b, _ := s.Submit(ctx, &Job{Module: "m", ID: "b", Tenant: "t"})
	urgent, _ := s.Submit(ctx, &Job{Module: "m", ID: "urgent", Tenant: "t", Priority: 10})
	for i := 0; i < 4; i++ {
		gate <- struct{}{}
	}
	for _, h := range []*Handle{first, a, b, urgent} {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"warmup", "urgent", "a", "b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestRetryWithBackoff: retryable failures re-execute up to MaxRetries.
func TestRetryWithBackoff(t *testing.T) {
	var calls atomic.Int32
	retryableErr := errors.New("transient")
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		if calls.Add(1) < 3 {
			return nil, retryableErr
		}
		return []byte("recovered"), nil
	}
	s := startSched(t, Config{
		Workers: 1, MaxRetries: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Retryable: func(err error) bool { return errors.Is(err, retryableErr) },
	}, exec)
	h, _ := s.Submit(context.Background(), &Job{Module: "m"})
	payload, err := h.Wait(context.Background())
	if err != nil || string(payload) != "recovered" {
		t.Fatalf("Wait = (%q, %v), want recovered", payload, err)
	}
	if h.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", h.Attempts())
	}
	if got := s.Status().Retries; got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestNonRetryableFailsOnce: without a Retryable classifier nothing
// retries.
func TestNonRetryableFailsOnce(t *testing.T) {
	var calls atomic.Int32
	boom := errors.New("boom")
	exec := func(ctx context.Context, j *Job) ([]byte, error) {
		calls.Add(1)
		return nil, boom
	}
	s := startSched(t, Config{Workers: 1, MaxRetries: 5}, exec)
	h, _ := s.Submit(context.Background(), &Job{Module: "m"})
	if _, err := h.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait error = %v, want boom", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor entered %d times, want 1", calls.Load())
	}
	if h.State() != StateFailed {
		t.Fatalf("state = %v, want failed", h.State())
	}
}

// TestDeadlineExpiresQueuedJob: a deadline that passes in the queue fails
// the job without running it.
func TestDeadlineExpiresQueuedJob(t *testing.T) {
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
	ctx := context.Background()
	first, _ := s.Submit(ctx, &Job{Module: "m", ID: "first"})
	waitState(t, first, StateRunning)
	doomed, _ := s.Submit(ctx, &Job{Module: "m", ID: "doomed", Deadline: time.Now().Add(10 * time.Millisecond)})
	time.Sleep(30 * time.Millisecond)
	close(block)
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("doomed Wait error = %v, want deadline exceeded", err)
	}
	if _, hit := ran.Load("doomed"); hit {
		t.Fatal("deadline-expired job reached the engine")
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

// TestPerJobExecOverride: Job.Exec runs instead of the scheduler-wide
// executor — the host runtime's hook.
func TestPerJobExecOverride(t *testing.T) {
	s := startSched(t, Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte("global"), nil
	})
	h, _ := s.Submit(context.Background(), &Job{Module: "m", Exec: func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte("override"), nil
	}})
	payload, err := h.Wait(context.Background())
	if err != nil || string(payload) != "override" {
		t.Fatalf("Wait = (%q, %v), want override", payload, err)
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
	first, _ := s.Submit(context.Background(), &Job{Module: "m"})
	waitState(t, first, StateRunning)
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
	waitState(t, first, StateRunning)
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
	s := startSched(t, Config{Workers: 1, MaxQueueDepth: 8, BudgetBytes: 1000}, exec)
	ctx := context.Background()
	first, _ := s.Submit(ctx, &Job{Module: "wc", Tenant: "alpha", InputBytes: 100, FootprintFactor: 3})
	waitState(t, first, StateRunning)
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
