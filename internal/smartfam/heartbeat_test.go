package smartfam

import (
	"context"
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

func TestDaemonHeartbeatDisabled(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	runDaemon(t, NewDaemon(fsys, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
	time.Sleep(20 * time.Millisecond)
	if _, ok := ReadHeartbeat(fsys); ok {
		t.Fatal("disabled heartbeat still stamped")
	}
}
