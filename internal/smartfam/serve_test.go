package smartfam

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mcsd/internal/metrics"
)

// deafFS is a share whose push stream arms and stays live but never
// delivers an event: every notify is dropped.
type deafFS struct{ FS }

func (deafFS) Watch(string) (WatchStream, error) {
	return deafStream{ch: make(chan WatchEvent)}, nil
}

type deafStream struct{ ch chan WatchEvent }

func (s deafStream) Events() <-chan WatchEvent { return s.ch }
func (deafStream) Close() error                { return nil }

var _ WatchFS = deafFS{}

// countFS counts the share operations the daemon issues, leaving out the
// status snapshot it republishes on its own timer.
type countFS struct {
	FS
	mu     sync.Mutex
	ops    int
	lists  int
	byName map[string]int
}

func (c *countFS) count(name string) {
	if name == QueueStatusName {
		return
	}
	c.mu.Lock()
	c.ops++
	if c.byName == nil {
		c.byName = make(map[string]int)
	}
	c.byName[name]++
	c.mu.Unlock()
}

// opsOn returns how many counted operations named name.
func (c *countFS) opsOn(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byName[name]
}

func (c *countFS) Create(name string) error {
	c.count(name)
	return c.FS.Create(name)
}

func (c *countFS) Append(name string, data []byte) error {
	c.count(name)
	return c.FS.Append(name, data)
}

// StatGen counts like Stat, and keeps the daemon on the identity path.
func (c *countFS) StatGen(name string) (int64, time.Time, uint64, error) {
	c.count(name)
	return c.FS.(GenStat).StatGen(name)
}

func (c *countFS) ReadAt(name string, p []byte, off int64) (int, error) {
	c.count(name)
	return c.FS.ReadAt(name, p, off)
}

func (c *countFS) Stat(name string) (int64, time.Time, error) {
	c.count(name)
	return c.FS.Stat(name)
}

func (c *countFS) List() ([]string, error) {
	c.mu.Lock()
	c.ops++
	c.lists++
	c.mu.Unlock()
	return c.FS.List()
}

func (c *countFS) Remove(name string) error {
	c.count(name)
	return c.FS.Remove(name)
}

func (c *countFS) Rename(oldname, newname string) error {
	c.count(oldname)
	return c.FS.Rename(oldname, newname)
}

func (c *countFS) counts() (ops, lists int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops, c.lists
}

// TestDaemonRescanRecoversWithoutEvents proves the tick sweep is a
// complete path on its own: over a share that cannot push, no notify ever
// fires, and requests are still served.
func TestDaemonRescanRecoversWithoutEvents(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(fsys, reg, WithPollInterval(5*time.Millisecond), WithHeartbeat(-1))
	runDaemon(t, d)

	client := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := client.Invoke(ctx, "echo", []byte("no event"))
	if err != nil {
		t.Fatalf("tick sweep did not serve the request: %v", err)
	}
	if string(out) != "echo:no event" {
		t.Fatalf("payload = %q", out)
	}
	if n := d.Metrics().Counter(metrics.FamPushEvents).Value(); n != 0 {
		t.Fatalf("%d push events on a share that cannot push", n)
	}
}

// TestDaemonSweepServesDroppedNotify covers the sweep while a stream is
// live: the stream arms and stays armed but drops every event, so only the
// push-mode sweep can find the request.
func TestDaemonSweepServesDroppedNotify(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(deafFS{fsys}, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1))
	runDaemon(t, d)

	client := NewClient(fsys, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := client.Invoke(ctx, "echo", []byte("dropped"))
	if err != nil {
		t.Fatalf("push-mode sweep did not serve the request: %v", err)
	}
	if string(out) != "echo:dropped" {
		t.Fatalf("payload = %q", out)
	}
	m := d.Metrics()
	if v := m.Gauge(metrics.FamPushActive).Value(); v != 1 {
		t.Fatalf("push_active = %d, want the stream still armed", v)
	}
	if n := m.Counter(metrics.FamDegraded).Value(); n != 0 {
		t.Fatalf("degraded %d times; the stream never died", n)
	}
	if n := m.Counter(metrics.FamPushEvents).Value(); n != 0 {
		t.Fatalf("%d push events from a stream that delivers none", n)
	}
}

// TestDaemonIdleSweepShareOps pins what an idle daemon costs the share. With
// no stream, each tick is one sweep: a List, then per module log one
// StatGen, whatever else the share holds and whether or not the log has
// been compacted (m0 has been). With a live stream, the sweeps come once
// per sweep period and not in between.
func TestDaemonIdleSweepShareOps(t *testing.T) {
	const logs = 5
	setup := func(t *testing.T) (FS, *Registry) {
		fsys := DirFS(t.TempDir())
		reg := NewRegistry(fsys)
		for i := range logs {
			if err := reg.Register(ModuleFunc{ModuleName: fmt.Sprintf("m%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range 7 {
			if err := fsys.Append(fmt.Sprintf("data%d.bin", i), []byte("not a log")); err != nil {
				t.Fatal(err)
			}
		}
		pair := append(requestLine(t, "done", "p"), responseLine(t, "done", "r")...)
		if err := fsys.Append(LogName("m0"), pair); err != nil {
			t.Fatal(err)
		}
		_, _, before, _ := fsys.(GenStat).StatGen(LogName("m0"))
		if _, err := reg.CompactLog("m0"); err != nil {
			t.Fatal(err)
		}
		size, _, after, err := fsys.(GenStat).StatGen(LogName("m0"))
		if err != nil || size != 0 || after == before {
			t.Fatalf("m0 after compaction: %d bytes, identity %d (was %d), %v; want an empty new log", size, after, before, err)
		}
		return fsys, reg
	}
	// run serves for about window and returns how long Run lasted.
	run := func(d *Daemon, window time.Duration) time.Duration {
		ctx, cancel := context.WithTimeout(context.Background(), window)
		defer cancel()
		start := time.Now()
		_ = d.Run(ctx)
		return time.Since(start)
	}

	t.Run("no-stream", func(t *testing.T) {
		fsys, reg := setup(t)
		cfs := &countFS{FS: fsys}
		d := NewDaemon(cfs, reg, WithPollInterval(2*time.Millisecond),
			WithHeartbeat(-1), WithStatusInterval(time.Hour))
		run(d, 300*time.Millisecond)
		ops, sweeps := cfs.counts()
		if sweeps < 10 {
			t.Fatalf("only %d sweeps in 300ms at a 2ms tick", sweeps)
		}
		if limit := sweeps * (1 + logs); ops > limit {
			t.Fatalf("%d share ops over %d idle sweeps (%.1f each), want <= %d each",
				ops, sweeps, float64(ops)/float64(sweeps), 1+logs)
		}
		t.Logf("%d share ops over %d idle sweeps", ops, sweeps)
	})

	t.Run("push", func(t *testing.T) {
		fsys, reg := setup(t)
		cfs := &countFS{FS: fsys}
		const interval = time.Millisecond
		sweepEvery := max(50*interval, 20*time.Millisecond)
		d := NewDaemon(deafFS{cfs}, reg, WithPollInterval(interval),
			WithHeartbeat(-1), WithStatusInterval(time.Hour))
		elapsed := run(d, 300*time.Millisecond)
		_, sweeps := cfs.counts()
		// At most one sweep per elapsed sweep period.
		if limit := int(elapsed / sweepEvery); sweeps > limit {
			t.Fatalf("%d sweeps in %v with a live stream, want <= %d (one per %v)",
				sweeps, elapsed, limit, sweepEvery)
		}
		if sweeps < 2 {
			t.Fatalf("%d sweeps in %v: the push-mode sweep never ran", sweeps, elapsed)
		}
	})
}
