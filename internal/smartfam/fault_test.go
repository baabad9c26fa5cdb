// Fault-injection tests for the daemon and client, exercised through the
// shared internal/faultfs layer. These live in the external test package:
// faultfs wraps smartfam.FS, so an in-package import would cycle.
package smartfam_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcsd/internal/faultfs"
	"mcsd/internal/smartfam"
)

func faultEchoModule() smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: "echo",
		Fn: func(_ context.Context, params []byte) ([]byte, error) {
			return append([]byte("echo:"), params...), nil
		},
	}
}

func TestDaemonSurvivesTransientFaults(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	ffs := faultfs.New(inner)
	reg := smartfam.NewRegistry(inner) // registry writes go direct (setup)
	if err := reg.Register(faultEchoModule()); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(ffs, reg, smartfam.WithPollInterval(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx) //nolint:errcheck

	// Inject a burst of stat/read/list failures; the daemon must keep
	// polling through them and serve the request that follows.
	ffs.FailNext(faultfs.OpStat, 5)
	ffs.FailNext(faultfs.OpRead, 3)
	ffs.FailNext(faultfs.OpList, 2)

	c := smartfam.NewClient(inner, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	got, err := c.Invoke(ictx, "echo", []byte("despite faults"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:despite faults" {
		t.Fatalf("result = %q", got)
	}
	if ffs.Injected() == 0 {
		t.Fatal("no faults were actually injected; test proves nothing")
	}
}

func TestDaemonRetriesFailedResponseAppend(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	ffs := faultfs.New(inner)
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(faultEchoModule()); err != nil {
		t.Fatal(err)
	}
	// No heartbeat, and one status publish at start: once that has
	// landed, the daemon's only appends through ffs are response records,
	// so the armed failure hits the response.
	d := smartfam.NewDaemon(ffs, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithStatusInterval(time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx) //nolint:errcheck
	waitStatusPublished(t, inner)

	ffs.FailNext(faultfs.OpAppend, 1)
	c := smartfam.NewClient(inner, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	got, err := c.Invoke(ictx, "echo", []byte("retry me"))
	if err != nil {
		t.Fatal(err) // the bounded-backoff retry must absorb the fault
	}
	if string(got) != "echo:retry me" {
		t.Fatalf("result = %q", got)
	}
	if v := d.Metrics().Counter("smartfam.daemon.append_errors").Value(); v != 1 {
		t.Fatalf("append_errors = %d, want 1 (the failed first attempt)", v)
	}
	if v := d.Metrics().Counter("smartfam.respond_errors").Value(); v != 0 {
		t.Fatalf("respond_errors = %d, want 0 (retry succeeded)", v)
	}
}

// waitStatusPublished blocks until the daemon's first status snapshot is
// on the share.
func waitStatusPublished(t *testing.T, fsys smartfam.FS) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if size, _, err := fsys.Stat(smartfam.QueueStatusName); err == nil && size > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("status snapshot never published")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDaemonCountsDroppedResponses(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	ffs := faultfs.New(inner)
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(faultEchoModule()); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(ffs, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx) //nolint:errcheck

	// Outlast every retry attempt: the reply is dropped and counted.
	ffs.FailNext(faultfs.OpAppend, 100)
	req := smartfam.Record{Kind: smartfam.KindRequest, ID: smartfam.NewID(), Payload: []byte("x")}
	line, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Append(smartfam.LogName("echo"), line); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for d.Metrics().Counter("smartfam.respond_errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("respond_errors never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClientSurfacesAppendFault(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	if err := inner.Create(smartfam.LogName("echo")); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(inner)
	// The client retries appends with bounded backoff; only a persistent
	// fault (outlasting every attempt) surfaces.
	ffs.FailNext(faultfs.OpAppend, 100)
	c := smartfam.NewClient(ffs, time.Millisecond)
	_, err := c.Invoke(context.Background(), "echo", []byte("x"))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("err = %v, want injected fault surfaced", err)
	}
}

func TestClientRetriesTransientAppendFault(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(faultEchoModule()); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(inner, reg, smartfam.WithPollInterval(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx) //nolint:errcheck

	ffs := faultfs.New(inner)
	ffs.FailNext(faultfs.OpAppend, 2) // fewer than the retry budget
	c := smartfam.NewClient(ffs, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	got, err := c.Invoke(ictx, "echo", []byte("transient"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:transient" {
		t.Fatalf("result = %q", got)
	}
}

// TestDaemonSweepRidesOutShareFaults: with no push stream, the daemon's
// tick sweep is its only reader. Stat and List failing for many ticks in a
// row must only delay a request, which is served once they recover.
func TestDaemonSweepRidesOutShareFaults(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	ffs := faultfs.New(inner)
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(faultEchoModule()); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(ffs, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// Each failed tick consumes one List fault; once List recovers, each
	// sweep's drain consumes Stat faults until those run out too.
	const faults = 20
	ffs.FailNext(faultfs.OpList, faults)
	ffs.FailNext(faultfs.OpStat, faults)
	c := smartfam.NewClient(inner, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	got, err := c.Invoke(ictx, "echo", []byte("after faults"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:after faults" {
		t.Fatalf("result = %q", got)
	}
	if n := ffs.Injected(); n != 2*faults {
		t.Fatalf("%d faults injected, want all %d spent before the answer", n, 2*faults)
	}
}

func TestDaemonRecoversTornResponseAppend(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	ffs := faultfs.New(inner)
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(faultEchoModule()); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(ffs, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx) //nolint:errcheck

	// First response append is torn mid-record; the retry must land a
	// clean record after the garbage and the client must still get its
	// answer (the torn fragment is quarantined by the leading-newline
	// resync and counted as corrupt).
	ffs.TearNext(1, 0.5)
	c := smartfam.NewClient(inner, time.Millisecond)
	c.SetMetrics(d.Metrics())
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	got, err := c.Invoke(ictx, "echo", []byte("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:torn" {
		t.Fatalf("result = %q", got)
	}
	if ffs.Torn() != 1 {
		t.Fatalf("Torn() = %d, want 1", ffs.Torn())
	}
}
