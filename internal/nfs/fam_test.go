package nfs

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// startFamTestbed wires the fam v2 topology end to end: an nfs server over
// a temp dir and a daemon whose share I/O runs through a LOOPBACK client
// of that server (so its response appends notify watchers). It returns the
// server address for host connections plus the daemon's registry.
func startFamTestbed(t *testing.T, daemonOpts ...smartfam.DaemonOption) (string, *metrics.Registry) {
	t.Helper()
	srv := NewServer(t.TempDir())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
	})

	dconn, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dconn.Close() })
	reg := smartfam.NewRegistry(dconn)
	echo := smartfam.ModuleFunc{
		ModuleName: "echo",
		Fn: func(_ context.Context, p []byte) ([]byte, error) {
			return p, nil
		},
	}
	if err := reg.Register(echo); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(dconn, reg, append([]smartfam.DaemonOption{
		smartfam.WithWorkers(4),
		smartfam.WithPollInterval(time.Millisecond),
	}, daemonOpts...)...)
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
	return ln.Addr().String(), d.Metrics()
}

// famHostClient dials a host connection and returns a smartfam client over
// view's picture of it (nil: the connection itself).
func famHostClient(t *testing.T, addr string, view func(*Client) smartfam.FS) (*smartfam.Client, *metrics.Registry) {
	t.Helper()
	hconn, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hconn.Close() })
	var share smartfam.FS = hconn
	if view != nil {
		share = view(hconn)
	}
	hostMetrics := metrics.NewRegistry()
	hc := smartfam.NewClient(share, time.Millisecond)
	hc.SetMetrics(hostMetrics)
	return hc, hostMetrics
}

// famInvokeAll fires calls concurrent echo invocations and fails the test
// on any error or payload mismatch.
func famInvokeAll(t *testing.T, hc *smartfam.Client, calls int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			out, err := hc.Invoke(ctx, "echo", []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(out) != want {
				errs <- fmt.Errorf("call %d: got %q", i, out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFamPushEndToEnd drives concurrent invocations through the complete
// push topology — host group commit, server notify lane, daemon loopback
// push, daemon response batching — and pins that the push path (not the
// polling fallback) carried them.
func TestFamPushEndToEnd(t *testing.T) {
	addr, daemonMetrics := startFamTestbed(t)
	hc, hostMetrics := famHostClient(t, addr, nil)

	const calls = 32
	famInvokeAll(t, hc, calls)

	// The detached response-batch leader counts a flush only after its
	// append returns, but that same append's notify is what released the
	// host: the last batch's counters may still be in flight here.
	respRecords := daemonMetrics.Counter(metrics.FamRespRecords)
	for deadline := time.Now().Add(10 * time.Second); respRecords.Value() < calls && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	if v := daemonMetrics.Gauge(metrics.FamPushActive).Value(); v != 1 {
		t.Fatalf("daemon push_active = %d, want 1", v)
	}
	if v := daemonMetrics.Counter(metrics.FamPushEvents).Value(); v == 0 {
		t.Fatal("daemon served zero push events; the polling fallback carried the load")
	}
	if v := hostMetrics.Counter(metrics.FamPushEvents).Value(); v == 0 {
		t.Fatal("host routed zero push events; responses arrived by polling")
	}
	flushes := daemonMetrics.Counter(metrics.FamRespFlushes).Value()
	records := respRecords.Value()
	if flushes == 0 || records != calls {
		t.Fatalf("response batching: %d flushes carrying %d records, want >0 carrying %d",
			flushes, records, calls)
	}
	if v := hostMetrics.Counter(metrics.FamBatchFlushes).Value(); v == 0 {
		t.Fatal("host group commit never flushed")
	}
	if v := hostMetrics.Counter(metrics.FamBatchRecords).Value(); v != calls {
		t.Fatalf("host batched %d records, want %d", v, calls)
	}
}

// pushlessFS is a view of a share that hides every capability beyond the
// base smartfam.FS — what a caching or fault-injecting wrapper looks like
// to the smartFAM client.
type pushlessFS struct{ smartfam.FS }

// TestFamPushlessViewFallsBackToPolling pins the fallback matrix's wrapper
// row end to end: a host whose view of a live connection hides WatchFS
// cannot push, yet invocations complete through the tick-driven router,
// with zero push events routed. A share that never pushed is not
// degraded: the degraded counter and the push-active gauge stay 0.
func TestFamPushlessViewFallsBackToPolling(t *testing.T) {
	addr, _ := startFamTestbed(t)
	hc, hostMetrics := famHostClient(t, addr, func(c *Client) smartfam.FS { return pushlessFS{c} })
	famInvokeAll(t, hc, 8)
	if v := hostMetrics.Counter(metrics.FamPushEvents).Value(); v != 0 {
		t.Fatalf("push-less host routed %d push events, want 0", v)
	}
	if v := hostMetrics.Counter(metrics.FamDegraded).Value(); v != 0 {
		t.Fatalf("push-less host counted %d degradations, want 0: it never had a stream to lose", v)
	}
	if g := hostMetrics.Gauge(metrics.FamPushActive); g.Peak() != 0 || g.Value() != 0 {
		t.Fatalf("push-less host push_active gauge peaked at %d (now %d), want 0", g.Peak(), g.Value())
	}
}
