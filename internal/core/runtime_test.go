package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/smartfam"
	"mcsd/internal/trace"
)

// fakeSD spins up a registry+daemon over a DirFS share with the given
// modules and returns the share.
func fakeSD(t *testing.T, mods ...smartfam.Module) smartfam.FS {
	t.Helper()
	share := smartfam.DirFS(t.TempDir())
	reg := smartfam.NewRegistry(share)
	for _, m := range mods {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	runDaemon(t, smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(time.Millisecond), smartfam.WithWorkers(4)))
	return share
}

// runDaemon serves d until the test ends, and joins it.
func runDaemon(t *testing.T, d *smartfam.Daemon) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func echoMod(name string) smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: name,
		Fn: func(_ context.Context, p []byte) ([]byte, error) {
			return append([]byte("ok:"), p...), nil
		},
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRunOffloadsToSD(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, echoMod("echo")))
	res, err := rt.Run(testCtx(t), Job{Module: "echo", Params: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd1" {
		t.Fatalf("result = %+v, want offloaded to sd1", res)
	}
	if string(res.Payload) != `ok:"hi"` {
		t.Fatalf("payload = %q", res.Payload)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", res.Attempts)
	}
	if rt.Metrics().Counter("core.offloads").Value() != 1 {
		t.Fatal("offload not counted")
	}
}

func TestRunOverlapsLocalWork(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, echoMod("echo")))
	var localRan atomic.Bool
	res, err := rt.Run(testCtx(t), Job{
		Module: "echo",
		Params: 1,
		Local: func(ctx context.Context) error {
			localRan.Store(true)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !localRan.Load() {
		t.Fatal("host-side function did not run")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestRunLocalErrorSurfaces(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, echoMod("echo")))
	_, err := rt.Run(testCtx(t), Job{
		Module: "echo",
		Local:  func(context.Context) error { return fmt.Errorf("host blew up") },
	})
	if err == nil || !strings.Contains(err.Error(), "host blew up") {
		t.Fatalf("err = %v, want host-side failure surfaced", err)
	}
}

func TestRunNoExecutor(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond))
	_, err := rt.Invoke(testCtx(t), "ghost", nil)
	if !errors.Is(err, ErrNoExecutor) {
		t.Fatalf("err = %v, want ErrNoExecutor", err)
	}
}

func TestRunSkipsNodeWithoutModule(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, echoMod("other")))
	rt.AttachSD("sd2", fakeSD(t, echoMod("echo")))
	res, err := rt.Invoke(testCtx(t), "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd2" {
		t.Fatalf("served by %q, want sd2", res.SD)
	}
}

func TestRunFailsOverFromDeadNode(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond), WithAttemptTimeout(100*time.Millisecond))
	// sd1's share has the module's log file, but no daemon serves it and no
	// heartbeat was ever stamped — a dead node only a timeout can expose.
	// Placement is random per job, so run jobs until one lands on sd1
	// first: it must time out there and fail over to sd2.
	deadShare := smartfam.DirFS(t.TempDir())
	deadReg := smartfam.NewRegistry(deadShare)
	if err := deadReg.Register(echoMod("echo")); err != nil {
		t.Fatal(err)
	}
	rt.AttachSD("sd1", deadShare)
	rt.AttachSD("sd2", fakeSD(t, echoMod("echo")))

	failedOver := int64(0)
	for i := 0; i < 64 && failedOver == 0; i++ {
		res, err := rt.Invoke(testCtx(t), "echo", i)
		if err != nil {
			t.Fatal(err)
		}
		if res.SD != "sd2" {
			t.Fatalf("job %d served by %q, want sd2", i, res.SD)
		}
		if res.Attempts == 2 {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Fatal("64 jobs and none placed on the dead node first")
	}
	if got := rt.Metrics().Counter("core.failovers").Value(); got != failedOver {
		t.Fatalf("core.failovers = %d, want %d", got, failedOver)
	}
}

func TestRunSkipsStaleHeartbeatNode(t *testing.T) {
	// A node whose daemon once ran (stale heartbeat on the share) is
	// skipped immediately — no invocation timeout burned.
	staleShare := smartfam.DirFS(t.TempDir())
	staleReg := smartfam.NewRegistry(staleShare)
	if err := staleReg.Register(echoMod("echo")); err != nil {
		t.Fatal(err)
	}
	if err := smartfam.WriteHeartbeat(staleShare, time.Now().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}

	rt := New(WithPollInterval(time.Millisecond),
		WithAttemptTimeout(30*time.Second)) // would be painful if burned
	rt.AttachSD("stale", staleShare)
	rt.AttachSD("live", fakeSD(t, echoMod("echo")))

	start := time.Now()
	for i := 0; i < 4; i++ {
		res, err := rt.Invoke(testCtx(t), "echo", "x")
		if err != nil {
			t.Fatal(err)
		}
		if res.SD != "live" || res.Attempts != 1 {
			t.Fatalf("result = %+v, want the live node on attempt 1 (stale node skipped, not tried)", res)
		}
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("skip took too long — attempt timeout was burned")
	}
	if got := rt.Metrics().Counter("core.heartbeat_skips").Value(); got != 4 {
		t.Fatalf("core.heartbeat_skips = %d, want 4", got)
	}
}

func TestRunStaleHeartbeatUnderConcurrentUpdates(t *testing.T) {
	// Probes read heartbeats off the share while the daemons rewrite them
	// — the steady state of a real cluster. One node's stamp is frozen in
	// the past, the other's is refreshed concurrently; every job must land
	// on the live node, with the stamp file being overwritten mid-read.
	// Run under -race this also proves the probe path shares no
	// unsynchronized state with heartbeat writers.
	staleShare := smartfam.DirFS(t.TempDir())
	staleReg := smartfam.NewRegistry(staleShare)
	if err := staleReg.Register(echoMod("echo")); err != nil {
		t.Fatal(err)
	}
	liveShare := fakeSD(t, echoMod("echo"))
	// Seed the stale stamp before any probe: a node with no heartbeat file
	// at all is deliberately still tried (see the next test), which would
	// burn the attempt timeout here.
	if err := smartfam.WriteHeartbeat(staleShare, time.Now().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for i := 0; i < 2; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				_ = smartfam.WriteHeartbeat(liveShare, time.Now())
				_ = smartfam.WriteHeartbeat(staleShare, time.Now().Add(-time.Hour))
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		writers.Wait()
	})

	// WriteHeartbeat truncates before rewriting, so a probe racing a writer
	// can read a torn (empty) stamp and legitimately try the dead node —
	// keep the attempt timeout short so that degrades to a quick failover
	// rather than a stall. The end state asserted below is unchanged:
	// every job is served by the live node.
	rt := New(WithPollInterval(time.Millisecond), WithAttemptTimeout(200*time.Millisecond))
	rt.AttachSD("stale", staleShare)
	rt.AttachSD("live", liveShare)

	ctx := testCtx(t)
	var invokers sync.WaitGroup
	for g := 0; g < 4; g++ {
		invokers.Add(1)
		go func() {
			defer invokers.Done()
			for i := 0; i < 5; i++ {
				res, err := rt.Invoke(ctx, "echo", i)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if res.SD != "live" {
					t.Errorf("served by %q, want live (stale heartbeat picked)", res.SD)
					return
				}
			}
		}()
	}
	invokers.Wait()
	if rt.Metrics().Counter("core.heartbeat_skips").Value() == 0 {
		t.Fatal("stale node never skipped by heartbeat")
	}
}

func TestRunNoHeartbeatFileStillTried(t *testing.T) {
	// A share without a heartbeat (an old daemon, or none) passes the probe
	// on reachability and is tried; only the attempt timeout exposes it.
	bare := smartfam.DirFS(t.TempDir())
	bareReg := smartfam.NewRegistry(bare)
	if err := bareReg.Register(echoMod("other")); err != nil {
		t.Fatal(err)
	}
	rt := New(WithPollInterval(time.Millisecond), WithAttemptTimeout(50*time.Millisecond))
	rt.AttachSD("bare", bare)
	_, err := rt.Invoke(testCtx(t), "other", nil)
	if !errors.Is(err, ErrNoExecutor) {
		t.Fatalf("err = %v, want ErrNoExecutor once the only node timed out", err)
	}
	if got := rt.Metrics().Counter("core.heartbeat_skips").Value(); got != 0 {
		t.Fatalf("node without heartbeat file was skipped %d times", got)
	}
	if got := rt.Metrics().Counter("core.failovers").Value(); got != 1 {
		t.Fatalf("core.failovers = %d, want 1: the node must have been tried", got)
	}
}

func TestRunModuleErrorDoesNotFailOver(t *testing.T) {
	failing := smartfam.ModuleFunc{
		ModuleName: "fail",
		Fn: func(context.Context, []byte) ([]byte, error) {
			return nil, fmt.Errorf("deterministic app error")
		},
	}
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, failing))
	rt.AttachSD("sd2", fakeSD(t, failing))
	_, err := rt.Invoke(testCtx(t), "fail", nil)
	var merr *smartfam.ModuleError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want ModuleError", err)
	}
	if rt.Metrics().Counter("core.failovers").Value() != 0 {
		t.Fatal("module error must not trigger failover")
	}
}

func TestRunSpreadsConcurrentJobs(t *testing.T) {
	// Each job is placed on a random live node: 24 concurrent jobs over two
	// nodes reach both (all on one node: p = 2^-23).
	var served1, served2 atomic.Int64
	slow := func(counter *atomic.Int64) smartfam.Module {
		return smartfam.ModuleFunc{
			ModuleName: "work",
			Fn: func(_ context.Context, p []byte) ([]byte, error) {
				counter.Add(1)
				time.Sleep(10 * time.Millisecond)
				return p, nil
			},
		}
	}
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, slow(&served1)))
	rt.AttachSD("sd2", fakeSD(t, slow(&served2)))

	ctx := testCtx(t)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rt.Invoke(ctx, "work", i)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if string(res.Payload) != fmt.Sprint(i) {
				t.Errorf("job %d payload = %q", i, res.Payload)
			}
		}(i)
	}
	wg.Wait()
	if served1.Load() == 0 || served2.Load() == 0 {
		t.Fatalf("load not spread: sd1=%d sd2=%d", served1.Load(), served2.Load())
	}
}

func TestRunRecordsTrace(t *testing.T) {
	tr := trace.New()
	rt := New(WithPollInterval(time.Millisecond), WithTracer(tr))
	rt.AttachSD("sd1", fakeSD(t, echoMod("echo")))
	if _, err := rt.Run(testCtx(t), Job{
		Module: "echo",
		Params: 1,
		Local:  func(context.Context) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "job echo" {
		t.Fatalf("roots = %v", roots)
	}
	names := map[string]bool{}
	for _, c := range roots[0].Children() {
		names[c.Name] = true
		if c.Duration() <= 0 {
			t.Fatalf("span %q not finished", c.Name)
		}
	}
	if !names["offload"] || !names["host-local"] {
		t.Fatalf("missing spans: %v", names)
	}
	var b strings.Builder
	if err := trace.Render(&b, roots, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "attempt sd1") {
		t.Fatalf("render missing attempt span:\n%s", b.String())
	}
}

func TestRunConcurrentPartialFailure(t *testing.T) {
	// One of four concurrent jobs fails with a module error; the other
	// three must complete untouched.
	picky := smartfam.ModuleFunc{
		ModuleName: "picky",
		Fn: func(_ context.Context, p []byte) ([]byte, error) {
			if string(p) == "2" {
				return nil, fmt.Errorf("refusing job 2")
			}
			return p, nil
		},
	}
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, picky))
	ctx := testCtx(t)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rt.Invoke(ctx, "picky", i)
			if err == nil && string(res.Payload) != fmt.Sprint(i) {
				err = fmt.Errorf("payload %q", res.Payload)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var merr *smartfam.ModuleError
		if i == 2 && !errors.As(err, &merr) {
			t.Fatalf("job 2: err = %v, want its ModuleError", err)
		}
		if i != 2 && err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

func TestSDNames(t *testing.T) {
	rt := New()
	rt.AttachSD("a", smartfam.DirFS(t.TempDir()))
	rt.AttachSD("b", smartfam.DirFS(t.TempDir()))
	names := rt.SDNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("SDNames = %v", names)
	}
}

func TestRunUnencodableParams(t *testing.T) {
	rt := New()
	_, err := rt.Invoke(context.Background(), "m", func() {})
	if err == nil {
		t.Fatal("unencodable params accepted")
	}
}
