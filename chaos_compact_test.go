// Chaos tests for module-log compaction (DESIGN.md §5j): a compaction that
// races a host append, one that crashes at each of its share operations,
// and one that drops a response its waiter's router never read must each
// leave every request answered exactly once. The last test pins the one
// torn append the framing cannot fence: a cut that keeps all of a record
// but its final newline. Run with: go test -run TestChaos -v .
package mcsd_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/faultfs"
	"mcsd/internal/smartfam"
)

// countingModule is a module named name that counts its completed runs
// per payload. While gate is non-nil and open, a payload starting "hold-"
// parks until gate closes or its context ends (an aborted run does not
// count).
type countingModule struct {
	mu   sync.Mutex
	runs map[string]int
	gate chan struct{}
}

func newCountingModule() *countingModule {
	return &countingModule{runs: make(map[string]int)}
}

func (m *countingModule) module(name string) smartfam.Module {
	return smartfam.ModuleFunc{ModuleName: name, Fn: func(ctx context.Context, p []byte) ([]byte, error) {
		m.mu.Lock()
		gate := m.gate
		m.mu.Unlock()
		if gate != nil && len(p) > 5 && string(p[:5]) == "hold-" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		m.mu.Lock()
		m.runs[string(p)]++
		m.mu.Unlock()
		return append([]byte("done:"), p...), nil
	}}
}

// assertRanOnce fails unless every payload ran exactly once.
func (m *countingModule) assertRanOnce(t *testing.T, payloads []string) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range payloads {
		if n := m.runs[p]; n != 1 {
			t.Fatalf("payload %q completed %d times, want exactly 1", p, n)
		}
	}
}

// logRecords returns the records on module's log, by kind and ID.
func logRecords(t *testing.T, fs smartfam.FS, module string) map[string]int {
	t.Helper()
	data, err := smartfam.ReadFrom(fs, smartfam.LogName(module), 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := smartfam.ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	for _, r := range recs {
		count[r.Kind+" "+r.ID]++
	}
	return count
}

// invokeChaos runs one InvokeID in the background and reports its error,
// or a mismatch with the module's answer.
func invokeChaos(ctx context.Context, c *smartfam.Client, module, id, payload string) <-chan error {
	done := make(chan error, 1)
	go func() {
		out, err := c.InvokeID(ctx, module, id, []byte(payload))
		if err == nil && string(out) != "done:"+payload {
			err = fmt.Errorf("%s: answer %q", id, out)
		}
		done <- err
	}()
	return done
}

// TestChaosCompactionRacingAppendAnswered pins the conditional replace: a
// host request that lands between CompactLog's read of the log and its
// rewrite is on the compacted log, and a daemon started afterwards answers
// it. A compaction that truncated and rewrote what it had read lost it.
func TestChaosCompactionRacingAppendAnswered(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	share := smartfam.DirFS(t.TempDir())
	mod := newCountingModule()
	ffs := faultfs.New(share)
	reg := smartfam.NewRegistry(ffs) // the compactor's view of the share
	if err := reg.Register(mod.module("cmp")); err != nil {
		t.Fatal(err)
	}
	opts := []smartfam.DaemonOption{smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1), smartfam.WithStatusInterval(time.Hour)}
	kill1 := startChaosDaemon(smartfam.NewDaemon(share, reg, opts...))
	defer kill1()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := smartfam.NewClient(share, time.Millisecond)
	payloads := []string{"a0", "a1", "a2"}
	for i, p := range payloads {
		if err := <-invokeChaos(ctx, c, "cmp", fmt.Sprintf("answered-%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	kill1() // the racer's request must outlive the compaction, not be served before it

	var racer <-chan error
	ffs.CrashAfter(faultfs.OpRead, 0, func() {
		racer = invokeChaos(ctx, c, "cmp", "racer", "race")
		chaosWait(t, 10*time.Second, "the racing request to land", func() bool {
			return logRecords(t, share, "cmp")["REQ racer"] > 0
		})
	})
	if _, _, err := reg.CompactLog("cmp"); err != nil {
		t.Fatal(err)
	}
	if racer == nil {
		t.Fatal("CompactLog never read the log")
	}
	if n := logRecords(t, share, "cmp")["REQ racer"]; n == 0 {
		t.Fatal("the racing request is gone from the compacted log")
	}

	defer startChaosDaemon(smartfam.NewDaemon(share, reg, opts...))()
	select {
	case err := <-racer:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the request that raced the compaction was never answered")
	}
	mod.assertRanOnce(t, append(payloads, "race"))
}

// TestChaosCompactionCrashAtEveryShareOp crashes the node — its daemon and
// its compactor — at each share operation CompactLog makes in turn, with
// requests admitted and still running, then restarts the daemon over the
// same share and journal: every pending request must be answered, and
// every module run must complete exactly once.
func TestChaosCompactionCrashAtEveryShareOp(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	errCrashed := errors.New("node crashed")
	// run plays the scenario with a crash at the compactor's share
	// operation crashAt (counting from 0; past the last one, CompactLog
	// completes and the node dies after it) and returns the share
	// operations the compactor made.
	run := func(t *testing.T, crashAt int) []faultfs.Op {
		share := smartfam.DirFS(t.TempDir())
		jpath := filepath.Join(t.TempDir(), "journal")
		var crashed atomic.Bool
		down := func(faultfs.Op, string) error {
			if crashed.Load() {
				return errCrashed
			}
			return nil
		}
		compFS := faultfs.New(share)
		d1FS := faultfs.New(share)
		d1FS.OnOp(down)

		mod := newCountingModule()
		mod.gate = make(chan struct{})
		reg1 := smartfam.NewRegistry(compFS)
		if err := reg1.Register(mod.module("cmp")); err != nil {
			t.Fatal(err)
		}
		opts := []smartfam.DaemonOption{smartfam.WithPollInterval(time.Millisecond),
			smartfam.WithHeartbeat(-1), smartfam.WithStatusInterval(time.Hour),
			smartfam.WithWorkers(4), smartfam.WithJournal(jpath)}
		d1 := smartfam.NewDaemon(d1FS, reg1, opts...)
		kill1 := startChaosDaemon(d1)
		defer kill1()

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		c := smartfam.NewClient(share, time.Millisecond)
		var payloads []string
		for i := range 3 {
			p := fmt.Sprintf("done-%d", i)
			payloads = append(payloads, p)
			if err := <-invokeChaos(ctx, c, "cmp", "id-"+p, p); err != nil {
				t.Fatal(err)
			}
		}
		var pending []<-chan error
		for i := range 3 {
			p := fmt.Sprintf("hold-%d", i)
			payloads = append(payloads, p)
			pending = append(pending, invokeChaos(ctx, c, "cmp", "id-"+p, p))
		}
		chaosWait(t, 10*time.Second, "the held requests to be admitted", func() bool {
			return d1.Metrics().Counter("smartfam.daemon.requests").Value() >= 6
		})

		var made []faultfs.Op
		compFS.OnOp(func(op faultfs.Op, name string) error {
			if made = append(made, op); len(made) > crashAt {
				crashed.Store(true)
			}
			return down(op, name)
		})
		_, _, err := reg1.CompactLog("cmp")
		if err != nil && !errors.Is(err, errCrashed) {
			t.Fatalf("CompactLog: %v", err)
		}
		crashed.Store(true) // the node dies here at the latest
		kill1()

		mod.mu.Lock()
		mod.gate = nil // the restarted node's modules run freely
		mod.mu.Unlock()
		reg2 := smartfam.NewRegistry(share)
		if err := reg2.Register(mod.module("cmp")); err != nil {
			t.Fatal(err)
		}
		defer startChaosDaemon(smartfam.NewDaemon(share, reg2, opts...))()
		for i, done := range pending {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("held request %d: %v", i, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("crash at compactor op %d: held request %d never answered", crashAt, i)
			}
		}
		mod.assertRanOnce(t, payloads)
		return made
	}

	ops := run(t, 1<<30)
	if len(ops) < 3 || ops[len(ops)-1] != faultfs.OpReplace {
		t.Fatalf("CompactLog made share operations %v, want a look and a read ending in a replace", ops)
	}
	for crashAt := 0; crashAt <= len(ops); crashAt++ {
		t.Run(fmt.Sprintf("crash-at-%d", crashAt), func(t *testing.T) { run(t, crashAt) })
	}
}

// gatedReads is a host's view of the share whose reads of one log wait
// while held is set.
type gatedReads struct {
	smartfam.FS
	log  string
	held atomic.Bool
	open chan struct{}
}

func (g *gatedReads) ReadAt(name string, p []byte, off int64) (int, error) {
	if name == g.log && g.held.Load() {
		<-g.open
	}
	return g.FS.ReadAt(name, p, off)
}

func (g *gatedReads) StatGen(name string) (int64, time.Time, uint64, error) {
	return g.FS.(smartfam.GenStat).StatGen(name)
}

// TestChaosCompactionAnswersCompactedAwayWaiter pins the router's rewind:
// a waiter whose response landed past its router's last read, and was then
// compacted away with its request, is still answered — the router appends
// the request again under its ID and the daemon answers it from its
// response cache without running the module a second time.
func TestChaosCompactionAnswersCompactedAwayWaiter(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	share := smartfam.DirFS(t.TempDir())
	mod := newCountingModule()
	reg := smartfam.NewRegistry(share)
	if err := reg.Register(mod.module("cmp")); err != nil {
		t.Fatal(err)
	}
	defer startChaosDaemon(smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1), smartfam.WithStatusInterval(time.Hour)))()

	host := &gatedReads{FS: share, log: smartfam.LogName("cmp"), open: make(chan struct{})}
	host.held.Store(true)
	c := smartfam.NewClient(host, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := invokeChaos(ctx, c, "cmp", "w", "late")
	chaosWait(t, 10*time.Second, "the response to land", func() bool {
		return logRecords(t, share, "cmp")["RES w"] > 0
	})
	if kept, _, err := reg.CompactLog("cmp"); err != nil || kept != 0 {
		t.Fatalf("CompactLog = (%d, %v), want the answered pair dropped", kept, err)
	}
	host.held.Store(false)
	close(host.open)
	select {
	case err := <-w:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the waiter whose response was compacted away was never answered")
	}
	mod.assertRanOnce(t, []string{"late"})
}

// TestChaosTornNewlineRunsOnceDeliversOnce pins DESIGN §5j's residual: an
// append torn after all of a record but its final newline leaves a record
// the retry's guard newline completes, so a retried request and a retried
// response each land twice. The daemon must run the request once and the
// host must take one answer; the completed copies are records, not
// corrupt lines.
func TestChaosTornNewlineRunsOnceDeliversOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	share := smartfam.DirFS(t.TempDir())
	mod := newCountingModule()
	reg := smartfam.NewRegistry(share)
	if err := reg.Register(mod.module("cmp")); err != nil {
		t.Fatal(err)
	}
	dFS := faultfs.New(share)
	d := smartfam.NewDaemon(dFS, reg, smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1), smartfam.WithStatusInterval(time.Hour))
	defer startChaosDaemon(d)()
	chaosWait(t, 10*time.Second, "startup status snapshot", func() bool {
		size, _, err := share.Stat(smartfam.QueueStatusName)
		return err == nil && size > 0
	})

	const id, payload = "torn", "torn-newline"
	keepAllButNewline := func(rec smartfam.Record) float64 {
		line, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return (float64(len(line)) - 0.5) / float64(len(line))
	}
	hFS := faultfs.New(share)
	hFS.TearNext(1, keepAllButNewline(smartfam.Record{Kind: smartfam.KindRequest, ID: id, Payload: []byte(payload)}))
	dFS.TearNext(1, keepAllButNewline(smartfam.Record{Kind: smartfam.KindResponse, ID: id,
		Status: smartfam.StatusOK, Payload: []byte("done:" + payload)}))

	c := smartfam.NewClient(hFS, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := <-invokeChaos(ctx, c, "cmp", id, payload); err != nil {
		t.Fatal(err)
	}
	chaosWait(t, 10*time.Second, "both response copies", func() bool {
		return logRecords(t, share, "cmp")["RES "+id] >= 2
	})
	if hFS.Torn() != 1 || dFS.Torn() != 1 {
		t.Fatalf("torn appends: host %d, daemon %d, want 1 each", hFS.Torn(), dFS.Torn())
	}
	recs := logRecords(t, share, "cmp")
	if recs["REQ "+id] != 2 || recs["RES "+id] != 2 {
		t.Fatalf("log holds %d request and %d response copies, want 2 of each", recs["REQ "+id], recs["RES "+id])
	}
	mod.assertRanOnce(t, []string{payload})
	if v := d.Metrics().Counter("smartfam.corrupt_records").Value(); v != 0 {
		t.Fatalf("daemon counted %d corrupt records; the torn copies were completed", v)
	}
}
