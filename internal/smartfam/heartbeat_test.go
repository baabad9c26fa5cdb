package smartfam

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestHeartbeatRoundTrip(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if _, ok := ReadHeartbeat(fsys); ok {
		t.Fatal("heartbeat present on a fresh share")
	}
	stamp := time.Unix(0, 1234567890123456789)
	if err := WriteHeartbeat(fsys, stamp); err != nil {
		t.Fatal(err)
	}
	got, ok := ReadHeartbeat(fsys)
	if !ok || !got.Equal(stamp) {
		t.Fatalf("ReadHeartbeat = (%v, %v), want %v", got, ok, stamp)
	}
	// Re-stamp replaces, not appends.
	later := stamp.Add(time.Hour)
	if err := WriteHeartbeat(fsys, later); err != nil {
		t.Fatal(err)
	}
	got, ok = ReadHeartbeat(fsys)
	if !ok || !got.Equal(later) {
		t.Fatalf("second ReadHeartbeat = (%v, %v), want %v", got, ok, later)
	}
}

func TestHeartbeatGarbageTolerated(t *testing.T) {
	fsys := DirFS(t.TempDir())
	if err := fsys.Append(HeartbeatName, []byte("not a number")); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadHeartbeat(fsys); ok {
		t.Fatal("garbage heartbeat accepted")
	}
}

func TestRunHeartbeatRefreshes(t *testing.T) {
	fsys := DirFS(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = RunHeartbeat(ctx, fsys, 5*time.Millisecond)
	}()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.After(5 * time.Second)
	var first time.Time
	for {
		if ts, ok := ReadHeartbeat(fsys); ok {
			if first.IsZero() {
				first = ts
			} else if ts.After(first) {
				return // refreshed at least once
			}
		}
		select {
		case <-deadline:
			t.Fatal("heartbeat never refreshed")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestDaemonStampsHeartbeat(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	runDaemon(t, NewDaemon(fsys, reg, WithPollInterval(time.Millisecond), WithHeartbeat(2*time.Millisecond)))

	deadline := time.After(5 * time.Second)
	for {
		if ts, ok := ReadHeartbeat(fsys); ok {
			if time.Since(ts) < time.Second {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatal("daemon never stamped a heartbeat")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// probeShare counts the share calls a Probe makes, and can make the share
// fail the way a dead transport does.
type probeShare struct {
	FS
	calls atomic.Int64
	down  atomic.Bool
}

var errShareDown = errors.New("share: connection reset")

func (s *probeShare) Stat(name string) (int64, time.Time, error) {
	s.calls.Add(1)
	if s.down.Load() {
		return 0, time.Time{}, errShareDown
	}
	return s.FS.Stat(name)
}

func (s *probeShare) ReadAt(name string, p []byte, off int64) (int, error) {
	s.calls.Add(1)
	return s.FS.ReadAt(name, p, off)
}

func (s *probeShare) List() ([]string, error) {
	s.calls.Add(1)
	return s.FS.List()
}

func TestProbeHeartbeatMemo(t *testing.T) {
	// Inside the staleness window the last stamp read answers "alive" with
	// no share I/O; past it Probe reads once (Stat + ReadAt), and only such
	// a read can answer "stale". A failed transport forgets the stamp.
	const window = 150 * time.Millisecond
	share := &probeShare{FS: DirFS(t.TempDir())}
	c := NewClient(share, time.Millisecond)
	c.SetProbeStaleAfter(window)
	ctx := context.Background()
	step := func(what string, wantAlive bool, wantCalls int64) {
		t.Helper()
		share.calls.Store(0)
		if err := c.Probe(ctx); (err == nil) != wantAlive {
			t.Fatalf("%s: Probe = %v, want alive %v", what, err, wantAlive)
		}
		if got := share.calls.Load(); got != wantCalls {
			t.Fatalf("%s: %d share calls, want %d", what, got, wantCalls)
		}
	}
	stamp := func() {
		if err := WriteHeartbeat(share.FS, time.Now()); err != nil {
			t.Fatal(err)
		}
	}

	step("no heartbeat file: reachability", true, 2) // Stat finds nothing, then List
	stamp()
	step("first stamp", true, 2)
	step("inside the window", true, 0)
	time.Sleep(window + 50*time.Millisecond)
	stamp() // the node is alive: its daemon stamped again
	step("past the window, live node", true, 2)
	step("inside the new window", true, 0)

	// An unknown module is the node's answer, not a transport failure: the
	// stamp stays. A share that fails the call voids it.
	if _, err := c.Invoke(ctx, "ghost", nil); !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("Invoke of a missing module = %v, want ErrUnknownModule", err)
	}
	step("after an unknown module", true, 0)
	share.down.Store(true)
	if _, err := c.Invoke(ctx, "ghost", nil); !errors.Is(err, errShareDown) {
		t.Fatalf("Invoke over a failing share = %v, want the transport error", err)
	}
	share.down.Store(false)
	step("after a transport failure, inside the window", true, 2)

	time.Sleep(window + 50*time.Millisecond) // no stamp: the node died
	step("dead node", false, 2)
	step("dead node again", false, 2)
}

func TestDaemonHeartbeatDisabled(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	runDaemon(t, NewDaemon(fsys, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
	time.Sleep(20 * time.Millisecond)
	if _, ok := ReadHeartbeat(fsys); ok {
		t.Fatal("disabled heartbeat still stamped")
	}
}
