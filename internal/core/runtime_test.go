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
	d := smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(time.Millisecond), smartfam.WithWorkers(4))
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
	return share
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
	if !res.Offloaded || res.SD != "sd1" {
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
	rt := New(WithPollInterval(time.Millisecond), WithAttemptTimeout(150*time.Millisecond))
	// sd1's share has the module's log file, but no daemon serves it —
	// a dead node. The attempt times out and fails over to sd2.
	deadShare := smartfam.DirFS(t.TempDir())
	deadReg := smartfam.NewRegistry(deadShare)
	if err := deadReg.Register(echoMod("echo")); err != nil {
		t.Fatal(err)
	}
	rt.AttachSD("sd1", deadShare)
	rt.AttachSD("sd2", fakeSD(t, echoMod("echo")))

	res, err := rt.Invoke(testCtx(t), "echo", "x")
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd2" || res.Attempts != 2 {
		t.Fatalf("result = %+v, want failover to sd2 on attempt 2", res)
	}
	if rt.Metrics().Counter("core.failovers").Value() != 1 {
		t.Fatal("failover not counted")
	}
	// sd1 is now unhealthy: the next job goes straight to sd2.
	res, err = rt.Invoke(testCtx(t), "echo", "y")
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd2" || res.Attempts != 1 {
		t.Fatalf("unhealthy node retried: %+v", res)
	}
	// Operator brings it back.
	if !rt.MarkHealthy("sd1") {
		t.Fatal("MarkHealthy failed")
	}
	if rt.MarkHealthy("nope") {
		t.Fatal("MarkHealthy of unknown node succeeded")
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
		WithHeartbeatStaleness(100*time.Millisecond),
		WithAttemptTimeout(30*time.Second)) // would be painful if burned
	rt.AttachSD("stale", staleShare)
	rt.AttachSD("live", fakeSD(t, echoMod("echo")))

	start := time.Now()
	res, err := rt.Invoke(testCtx(t), "echo", "x")
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "live" {
		t.Fatalf("served by %q, want live node", res.SD)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (stale node skipped, not tried)", res.Attempts)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("skip took too long — attempt timeout was burned")
	}
	if rt.Metrics().Counter("core.heartbeat_skips").Value() == 0 {
		t.Fatal("heartbeat skip not counted")
	}
}

func TestRunStaleHeartbeatUnderConcurrentUpdates(t *testing.T) {
	// Node selection reads heartbeats off the share while the daemons
	// rewrite them — the steady state of a real cluster. One node's stamp
	// is frozen in the past, the other's is refreshed concurrently; every
	// pick must land on the live node, with the stamp file being
	// overwritten mid-read. Run under -race this also proves the
	// pick path shares no unsynchronized state with heartbeat writers.
	staleShare := smartfam.DirFS(t.TempDir())
	staleReg := smartfam.NewRegistry(staleShare)
	if err := staleReg.Register(echoMod("echo")); err != nil {
		t.Fatal(err)
	}
	liveShare := fakeSD(t, echoMod("echo"))
	// Seed the stale stamp before any pick: a node with no heartbeat file
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

	// WriteHeartbeat truncates before rewriting, so a pick racing a writer
	// can read a torn (empty) stamp and legitimately try the dead node —
	// keep the attempt timeout short so that degrades to a quick failover
	// rather than a stall. The end state asserted below is unchanged:
	// every job is served by the live node.
	rt := New(WithPollInterval(time.Millisecond),
		WithHeartbeatStaleness(5*time.Second),
		WithAttemptTimeout(200*time.Millisecond))
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
	// Shares without a heartbeat (old daemons) must not be skipped.
	rt := New(WithPollInterval(time.Millisecond), WithHeartbeatStaleness(time.Millisecond))
	share := fakeSD(t, echoMod("echo"))
	// fakeSD's daemon stamps heartbeats; remove staleness concerns by
	// attaching a second share that never had one.
	bare := smartfam.DirFS(t.TempDir())
	bareReg := smartfam.NewRegistry(bare)
	if err := bareReg.Register(echoMod("other")); err != nil {
		t.Fatal(err)
	}
	_ = share
	rt.AttachSD("bare", bare)
	// "other" exists only on the bare share; with heartbeat checks on, the
	// bare node must still be tried (and will fail only by timeout, so use
	// a short one).
	rtShort := New(WithPollInterval(time.Millisecond),
		WithHeartbeatStaleness(time.Millisecond), WithAttemptTimeout(50*time.Millisecond))
	rtShort.AttachSD("bare", bare)
	_, err := rtShort.Invoke(testCtx(t), "other", nil)
	if errors.Is(err, ErrNoExecutor) && rtShort.Metrics().Counter("core.heartbeat_skips").Value() > 0 {
		t.Fatal("node without heartbeat file was skipped")
	}
}

// countingShare counts every share call pick makes on a node.
type countingShare struct {
	smartfam.FS
	calls atomic.Int64
}

func (s *countingShare) Stat(name string) (int64, time.Time, error) {
	s.calls.Add(1)
	return s.FS.Stat(name)
}

func (s *countingShare) ReadAt(name string, p []byte, off int64) (int, error) {
	s.calls.Add(1)
	return s.FS.ReadAt(name, p, off)
}

func TestPickHeartbeatMemo(t *testing.T) {
	// Inside the staleness window the last stamp read answers "fresh" with
	// no share I/O; past it pick reads once (Stat + ReadAt), and a stale
	// verdict always comes from such a read.
	const window = 150 * time.Millisecond
	share := &countingShare{FS: smartfam.DirFS(t.TempDir())}
	rt := New(WithHeartbeatStaleness(window))
	rt.AttachSD("sd", share)
	step := func(what string, wantPicked bool, wantCalls, wantSkips int64) {
		t.Helper()
		share.calls.Store(0)
		h := rt.pick(nil)
		if (h != nil) != wantPicked {
			t.Fatalf("%s: picked = %v, want %v", what, h != nil, wantPicked)
		}
		if got := share.calls.Load(); got != wantCalls {
			t.Fatalf("%s: %d share calls, want %d", what, got, wantCalls)
		}
		if got := rt.Metrics().Counter("core.heartbeat_skips").Value(); got != wantSkips {
			t.Fatalf("%s: heartbeat_skips = %d, want %d", what, got, wantSkips)
		}
	}
	stamp := func() {
		if err := smartfam.WriteHeartbeat(share.FS, time.Now()); err != nil {
			t.Fatal(err)
		}
	}

	stamp()
	step("first pick", true, 2, 0)
	step("inside the window", true, 0, 0)
	time.Sleep(window + 50*time.Millisecond)
	stamp() // the node is alive: its daemon stamped again
	step("past the window, live node", true, 2, 0)
	step("inside the new window", true, 0, 0)
	time.Sleep(window + 50*time.Millisecond) // no stamp: the node died
	step("dead node", false, 2, 1)
	step("dead node again", false, 2, 2)
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

func TestRunLocalFallback(t *testing.T) {
	rt := New(WithPollInterval(time.Millisecond), WithAttemptTimeout(100*time.Millisecond))
	// One dead node; a local fallback registered.
	deadShare := smartfam.DirFS(t.TempDir())
	deadReg := smartfam.NewRegistry(deadShare)
	if err := deadReg.Register(echoMod("echo")); err != nil {
		t.Fatal(err)
	}
	rt.AttachSD("sd1", deadShare)
	rt.RegisterLocalFallback(smartfam.ModuleFunc{
		ModuleName: "echo",
		Fn: func(_ context.Context, p []byte) ([]byte, error) {
			return []byte("local"), nil
		},
	})
	res, err := rt.Invoke(testCtx(t), "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offloaded || res.SD != "" {
		t.Fatalf("fallback result marked offloaded: %+v", res)
	}
	if string(res.Payload) != "local" {
		t.Fatalf("payload = %q", res.Payload)
	}
	if rt.Metrics().Counter("core.local_fallbacks").Value() != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestRunShardedSpreadsLoad(t *testing.T) {
	var served1, served2 atomic.Int64
	slow := func(counter *atomic.Int64) smartfam.Module {
		return smartfam.ModuleFunc{
			ModuleName: "work",
			Fn: func(_ context.Context, p []byte) ([]byte, error) {
				counter.Add(1)
				time.Sleep(30 * time.Millisecond)
				return p, nil
			},
		}
	}
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, slow(&served1)))
	rt.AttachSD("sd2", fakeSD(t, slow(&served2)))

	params := make([]any, 6)
	for i := range params {
		params[i] = i
	}
	results := rt.RunSharded(testCtx(t), "work", params)
	for i, sr := range results {
		if sr.Err != nil {
			t.Fatalf("shard %d: %v", i, sr.Err)
		}
		if string(sr.Payload) != fmt.Sprint(i) {
			t.Fatalf("shard %d payload = %q", i, sr.Payload)
		}
	}
	if served1.Load() == 0 || served2.Load() == 0 {
		t.Fatalf("load not balanced: sd1=%d sd2=%d", served1.Load(), served2.Load())
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

func TestRunShardedPartialFailure(t *testing.T) {
	// One shard fails (module error); the rest must complete untouched.
	picky := smartfam.ModuleFunc{
		ModuleName: "picky",
		Fn: func(_ context.Context, p []byte) ([]byte, error) {
			if strings.Contains(string(p), "2") {
				return nil, fmt.Errorf("refusing shard 2")
			}
			return p, nil
		},
	}
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd1", fakeSD(t, picky))
	params := []any{0, 1, 2, 3}
	results := rt.RunSharded(testCtx(t), "picky", params)
	var failed, succeeded int
	for i, sr := range results {
		if sr.Err != nil {
			failed++
			var merr *smartfam.ModuleError
			if !errors.As(sr.Err, &merr) {
				t.Fatalf("shard %d error type %T", i, sr.Err)
			}
			continue
		}
		succeeded++
		if string(sr.Payload) != fmt.Sprint(i) {
			t.Fatalf("shard %d payload %q", i, sr.Payload)
		}
	}
	if failed != 1 || succeeded != 3 {
		t.Fatalf("failed=%d succeeded=%d, want 1/3", failed, succeeded)
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
