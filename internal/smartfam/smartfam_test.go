package smartfam

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoModule() Module {
	return ModuleFunc{
		ModuleName: "echo",
		Fn: func(_ context.Context, params []byte) ([]byte, error) {
			return append([]byte("echo:"), params...), nil
		},
	}
}

// startDaemon spins up a registry+daemon over a fresh share and returns the
// share and a cleanup-bound context.
func startDaemon(t *testing.T, mods ...Module) (FS, *Registry) {
	t.Helper()
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	for _, m := range mods {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	runDaemon(t, NewDaemon(fsys, reg, WithPollInterval(time.Millisecond), WithWorkers(4)))
	return fsys, reg
}

// runDaemon runs d until the test ends; Run joins everything it starts, so
// once the cleanup returns nothing writes to the share any more.
func runDaemon(t *testing.T, d *Daemon) {
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

func TestRegistryRegisterCreatesLog(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fsys.Stat("echo.log"); err != nil {
		t.Fatalf("log file not created: %v", err)
	}
	if err := reg.Register(echoModule()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "echo" {
		t.Fatalf("Names = %v", got)
	}
	m, err := reg.Lookup("echo")
	if err != nil || m.Name() != "echo" {
		t.Fatalf("Lookup = (%v, %v)", m, err)
	}
	if _, err := reg.Lookup("nope"); !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("Lookup missing err = %v", err)
	}
}

func TestRegistryRejectsAnonymousModule(t *testing.T) {
	reg := NewRegistry(DirFS(t.TempDir()))
	if err := reg.Register(ModuleFunc{ModuleName: ""}); err == nil {
		t.Fatal("anonymous module accepted")
	}
}

func TestInvokeEndToEnd(t *testing.T) {
	fsys, _ := startDaemon(t, echoModule())
	c := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Invoke(ctx, "echo", []byte("hello mcsd"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:hello mcsd" {
		t.Fatalf("result = %q", got)
	}
}

// TestInvokeUnknownModule pins the router's arm-time existence check on
// both kinds of share: a module with no log is ErrUnknownModule, and the
// failed arm publishes no router — so starts no router goroutine — and, on
// a share that pushes, leaves no watch armed.
func TestInvokeUnknownModule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		share func(t *testing.T) (FS, func() int) // the share and its armed-watch count
	}{
		{"pushless", func(t *testing.T) (FS, func() int) {
			fsys, _ := startDaemon(t, echoModule())
			return fsys, func() int { return 0 }
		}},
		{"push", func(t *testing.T) (FS, func() int) {
			hub := newPushHub(t)
			if err := NewRegistry(hub.view()).Register(echoModule()); err != nil {
				t.Fatal(err)
			}
			return hub.view(), func() int {
				hub.mu.Lock()
				defer hub.mu.Unlock()
				return len(hub.streams)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			share, watches := tc.share(t)
			c := NewClient(share, time.Millisecond)
			_, err := c.Invoke(context.Background(), "missing", nil)
			if !errors.Is(err, ErrUnknownModule) {
				t.Fatalf("err = %v, want ErrUnknownModule", err)
			}
			c.pushMu.Lock()
			routers := len(c.routers)
			c.pushMu.Unlock()
			if routers != 0 {
				t.Fatalf("%d routers left behind for a missing module", routers)
			}
			if n := watches(); n != 0 {
				t.Fatalf("%d watches left armed for a missing module", n)
			}
		})
	}
}

func TestInvokeModuleError(t *testing.T) {
	failing := ModuleFunc{
		ModuleName: "fail",
		Fn: func(context.Context, []byte) ([]byte, error) {
			return nil, fmt.Errorf("synthetic module failure")
		},
	}
	fsys, _ := startDaemon(t, failing)
	c := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.Invoke(ctx, "fail", nil)
	var merr *ModuleError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want ModuleError", err)
	}
	if !strings.Contains(merr.Msg, "synthetic") {
		t.Fatalf("error message %q lost", merr.Msg)
	}
}

func TestInvokeModulePanicIsolated(t *testing.T) {
	panicky := ModuleFunc{
		ModuleName: "panic",
		Fn: func(context.Context, []byte) ([]byte, error) {
			panic("module exploded")
		},
	}
	fsys, _ := startDaemon(t, panicky, echoModule())
	c := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.Invoke(ctx, "panic", nil)
	var merr *ModuleError
	if !errors.As(err, &merr) {
		t.Fatalf("panic err = %v, want ModuleError", err)
	}
	// The daemon must survive and keep serving other modules.
	got, err := c.Invoke(ctx, "echo", []byte("alive?"))
	if err != nil || string(got) != "echo:alive?" {
		t.Fatalf("daemon dead after module panic: (%q, %v)", got, err)
	}
}

func TestInvokeConcurrent(t *testing.T) {
	fsys, _ := startDaemon(t, echoModule())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(fsys, time.Millisecond)
			payload := fmt.Sprintf("req-%d", i)
			got, err := c.Invoke(ctx, "echo", []byte(payload))
			if err != nil {
				errs[i] = err
				return
			}
			if string(got) != "echo:"+payload {
				errs[i] = fmt.Errorf("wrong result %q for %q", got, payload)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestInvokeLargePayload(t *testing.T) {
	fsys, _ := startDaemon(t, echoModule())
	c := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	got, err := c.Invoke(ctx, "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big)+5 || !bytes.Equal(got[5:], big) {
		t.Fatal("large payload corrupted")
	}
}

func TestInvokeContextCancelled(t *testing.T) {
	// No daemon running: the invoke can never complete.
	fsys := DirFS(t.TempDir())
	if err := fsys.Create("echo.log"); err != nil {
		t.Fatal(err)
	}
	c := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Invoke(ctx, "echo", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestClientModulesDiscovery(t *testing.T) {
	fsys, reg := startDaemon(t, echoModule())
	c := NewClient(fsys, time.Millisecond)
	mods, err := c.Modules()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 || mods[0] != "echo" {
		t.Fatalf("Modules = %v", mods)
	}
	// Runtime extensibility (§VI future work): load a second module and
	// invoke it without restarting anything.
	upper := ModuleFunc{
		ModuleName: "upper",
		Fn: func(_ context.Context, p []byte) ([]byte, error) {
			return bytes.ToUpper(p), nil
		},
	}
	if err := reg.Register(upper); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Invoke(ctx, "upper", []byte("mcsd"))
	if err != nil || string(got) != "MCSD" {
		t.Fatalf("hot-loaded module: (%q, %v)", got, err)
	}
}

func TestDaemonMetrics(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(fsys, reg, WithPollInterval(time.Millisecond))
	runDaemon(t, d)

	c := NewClient(fsys, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer icancel()
	if _, err := c.Invoke(ictx, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Counter("smartfam.daemon.requests").Value() != 1 {
		t.Fatal("request not counted")
	}
	// The daemon's own scheduler times the run on the daemon's registry.
	if d.Metrics().Timer("sched.run").Count() != 1 {
		t.Fatal("invoke not timed")
	}
}
