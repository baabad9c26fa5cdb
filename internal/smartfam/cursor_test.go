package smartfam

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// readSizeFS records the largest buffer any ReadAt was handed.
type readSizeFS struct {
	FS
	mu      sync.Mutex
	largest int
	reads   int
}

func (r *readSizeFS) ReadAt(name string, p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.largest = max(r.largest, len(p))
	r.reads++
	r.mu.Unlock()
	return r.FS.ReadAt(name, p, off)
}

func (r *readSizeFS) StatGen(name string) (int64, time.Time, uint64, error) {
	return r.FS.(GenStat).StatGen(name)
}

// TestDaemonDrainsLargeBacklogInBoundedReads pins the daemon's drain to the
// cursor's bound: a backlog of 1.5 MiB — six read chunks — is drained in
// reads of at most scanChunk bytes, never one buffer for the whole
// backlog, and every request in it comes back once, in log order.
func TestDaemonDrainsLargeBacklogInBoundedReads(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	logName := LogName("echo")
	payload := strings.Repeat("x", 1000)
	var ids []string
	var backlog []byte
	for len(backlog) < 1536<<10 {
		id := fmt.Sprintf("r%05d", len(ids))
		ids = append(ids, id)
		backlog = append(backlog, requestLine(t, id, payload)...)
	}
	if err := fsys.Append(logName, backlog); err != nil {
		t.Fatal(err)
	}
	rfs := &readSizeFS{FS: fsys}
	d := NewDaemon(rfs, reg) // not running: the test drives the drain
	got := d.drainRequests(t.Context(), logName)
	if len(got) != len(ids) {
		t.Fatalf("drain returned %d requests, want %d", len(got), len(ids))
	}
	for i, rec := range got {
		if rec.ID != ids[i] || string(rec.Payload) != payload {
			t.Fatalf("request %d = %q (%d B payload), want %q", i, rec.ID, len(rec.Payload), ids[i])
		}
	}
	if rfs.largest > scanChunk {
		t.Fatalf("largest read %d B, want <= %d", rfs.largest, scanChunk)
	}
	if want := (len(backlog) + scanChunk - 1) / scanChunk; rfs.reads > want+1 {
		t.Fatalf("%d reads for %d B, want about %d", rfs.reads, len(backlog), want)
	}
	if again := d.drainRequests(t.Context(), logName); len(again) != 0 {
		t.Fatalf("second drain returned %d requests", len(again))
	}
}

// armCountFS counts every share operation a view issues, Watch included.
type armCountFS struct {
	*hubView
	mu  sync.Mutex
	ops []string
}

func (a *armCountFS) note(op string) {
	a.mu.Lock()
	a.ops = append(a.ops, op)
	a.mu.Unlock()
}

func (a *armCountFS) Watch(prefix string) (WatchStream, error) {
	a.note("watch")
	return a.hubView.Watch(prefix)
}

func (a *armCountFS) StatGen(name string) (int64, time.Time, uint64, error) {
	a.note("statgen")
	return a.hubView.StatGen(name)
}

func (a *armCountFS) Stat(name string) (int64, time.Time, error) {
	a.note("stat")
	return a.hubView.Stat(name)
}

func (a *armCountFS) ReadAt(name string, p []byte, off int64) (int, error) {
	a.note("readat")
	return a.hubView.ReadAt(name, p, off)
}

func (a *armCountFS) recorded() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.ops)
}

// TestRouterArmsInTwoRoundTrips pins the router's arm cost: a watch, then
// one Stat that reports the log's identity with its size — no separate
// generation read.
func TestRouterArmsInTwoRoundTrips(t *testing.T) {
	hub := newPushHub(t)
	if err := hub.FS.Create(LogName("echo")); err != nil {
		t.Fatal(err)
	}
	view := &armCountFS{hubView: hub.view()}
	c := NewClient(view, time.Millisecond)
	rt, err := c.router("echo")
	if err != nil {
		t.Fatal(err)
	}
	arm := view.recorded()
	rt.unregister("")
	if want := []string{"watch", "statgen"}; !slices.Equal(arm, want) {
		t.Fatalf("arming the router issued %v, want %v", arm, want)
	}
}

// TestDaemonIgnoresStaleGenSidecar pins that a <module>.gen file left on
// the share by a node that predates file identities is inert: it names no
// module, the daemon's sweeps never touch it, and invocations work.
func TestDaemonIgnoresStaleGenSidecar(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	stale := strings.TrimSuffix(LogName("echo"), "log") + "gen" // echo.gen, as older nodes wrote it
	if err := fsys.Append(stale, []byte("7")); err != nil {
		t.Fatal(err)
	}
	cfs := &countFS{FS: fsys}
	d := NewDaemon(cfs, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1))
	runDaemon(t, d)

	c := NewClient(fsys, time.Millisecond)
	mods, err := c.Modules()
	if err != nil || !slices.Equal(mods, []string{"echo"}) {
		t.Fatalf("Modules() = (%v, %v), want [echo]", mods, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if out, err := c.Invoke(ctx, "echo", []byte("hi")); err != nil || string(out) != "echo:hi" {
		t.Fatalf("Invoke = (%q, %v)", out, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, lists := cfs.counts(); lists >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the daemon never swept the share five times")
		}
	}
	if n := cfs.opsOn(stale); n != 0 {
		t.Fatalf("the daemon touched the stale sidecar %d times", n)
	}
}
