// Exactly-once contracts of group commit, the only path by which requests
// and fresh responses reach the share: a torn batch on either side and a
// recovery re-run racing the first drain must each leave one answer per
// correlation ID and one execution per request.
package smartfam_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcsd/internal/faultfs"
	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// countingModule answers "done:"+params and counts runs per params. When
// gate is non-nil every run parks on it, after reporting in on entered.
type countingModule struct {
	name    string
	gate    <-chan struct{}
	entered chan<- string

	mu   sync.Mutex
	runs map[string]int
}

func newCountingModule(name string) *countingModule {
	return &countingModule{name: name, runs: make(map[string]int)}
}

func (m *countingModule) module() smartfam.Module {
	return smartfam.ModuleFunc{ModuleName: m.name, Fn: func(ctx context.Context, p []byte) ([]byte, error) {
		m.mu.Lock()
		m.runs[string(p)]++
		m.mu.Unlock()
		if m.gate != nil {
			select {
			case m.entered <- string(p):
			default: // a run past the expected ones; the test counts it
			}
			select {
			case <-m.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return append([]byte("done:"), p...), nil
	}}
}

// assertRanOnce fails unless every payload ran exactly once.
func (m *countingModule) assertRanOnce(t *testing.T, payloads ...string) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range payloads {
		if m.runs[p] != 1 {
			t.Errorf("payload %q ran %d times, want exactly 1", p, m.runs[p])
		}
	}
}

// serve runs d until the test ends; cleanup waits for Run to return, so
// nothing touches the share after its TempDir is removed.
func serve(t *testing.T, d *smartfam.Daemon) {
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

// responseCounts counts the response records per ID on module's log.
func responseCounts(t *testing.T, fsys smartfam.FS, module string) map[string]int {
	t.Helper()
	data, err := smartfam.ReadFrom(fsys, smartfam.LogName(module), 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := smartfam.ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, r := range recs {
		if r.Kind == smartfam.KindResponse {
			counts[r.ID]++
		}
	}
	return counts
}

// invokeAll runs one InvokeID per payload concurrently, each under a fresh
// ID, and fails unless every caller gets its own answer. It returns the IDs.
func invokeAll(t *testing.T, c *smartfam.Client, module string, payloads []string) []string {
	t.Helper()
	ids, err := invokeEach(c, module, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// invokeEach is invokeAll for a goroutine other than the test's: it
// reports the first caller that failed or got someone else's answer.
func invokeEach(c *smartfam.Client, module string, payloads []string) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ids := make([]string, len(payloads))
	errs := make(chan error, len(payloads))
	for i, p := range payloads {
		ids[i] = smartfam.NewID()
		go func(id, p string) {
			out, err := c.InvokeID(ctx, module, id, []byte(p))
			if err == nil && string(out) != "done:"+p {
				err = fmt.Errorf("caller %q got %q", p, out)
			}
			errs <- err
		}(ids[i], p)
	}
	var first error
	for range payloads {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return ids, first
}

// TestDaemonTornResponseBatchLandsEachOnce tears a four-record response
// batch on a record boundary: two answers land before the cut, two do not.
// The batch is held open until all four have joined (HoldNextBatch) and
// the counters confirm the torn flush carried all four.
// The retry must re-send only the two that did not, so the log holds one
// answer per ID.
func TestDaemonTornResponseBatchLandsEachOnce(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	ffs := faultfs.New(inner)
	const n = 4
	gate := make(chan struct{})
	entered := make(chan string, n)
	mod := newCountingModule("gated")
	mod.gate, mod.entered = gate, entered
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(mod.module()); err != nil {
		t.Fatal(err)
	}
	// No heartbeat and one status publish at start: once it has landed,
	// the daemon's only appends through ffs are response batches.
	d := smartfam.NewDaemon(ffs, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(n),
		smartfam.WithStatusInterval(time.Hour))
	serve(t, d)
	waitStatusPublished(t, inner)

	payloads := []string{"p0", "p1", "p2", "p3"} // equal-length answers
	type outcome struct {
		ids []string
		err error
	}
	res := make(chan outcome, 1)
	c := smartfam.NewClient(inner, time.Millisecond)
	go func() {
		ids, err := invokeEach(c, "gated", payloads)
		res <- outcome{ids, err}
	}()
	// Every worker holds an answer. The next leader, the first answer's,
	// holds its batch until all four answers have joined it.
	for range payloads {
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			t.Fatal("the four requests never all reached a worker")
		}
	}
	smartfam.HoldNextBatch(t, n)
	ffs.TearNext(1, 0.5)
	close(gate)
	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}

	if ffs.Torn() != 1 {
		t.Fatalf("Torn() = %d, want 1", ffs.Torn())
	}
	// The counters move after the batch lands, which the callers may beat.
	flushes := d.Metrics().Counter(metrics.FamRespFlushes)
	for deadline := time.Now().Add(10 * time.Second); flushes.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the torn response batch never counted as flushed")
		}
	}
	if f, r := flushes.Value(), d.Metrics().Counter(metrics.FamRespRecords).Value(); f != 1 || r != n {
		t.Fatalf("response batches: %d flushes carrying %d records, want 1 carrying %d", f, r, n)
	}
	mod.assertRanOnce(t, payloads...)
	counts := responseCounts(t, inner, "gated")
	for i, id := range out.ids {
		if counts[id] != 1 {
			t.Errorf("request %d has %d response records, want exactly 1", i, counts[id])
		}
	}
}

// drainGate holds the first append to log until the log has been read
// twice — by the recovery scan, then by the first drain — or for 100 ms,
// whichever ends first.
type drainGate struct {
	smartfam.FS
	log     string
	drained chan struct{}

	mu    sync.Mutex
	reads int
	hold  sync.Once
}

func (g *drainGate) ReadAt(name string, p []byte, off int64) (int, error) {
	n, err := g.FS.ReadAt(name, p, off)
	if name == g.log {
		g.mu.Lock()
		if g.reads++; g.reads == 2 {
			close(g.drained)
		}
		g.mu.Unlock()
	}
	return n, err
}

func (g *drainGate) Append(name string, data []byte) error {
	if name == g.log {
		g.hold.Do(func() {
			select {
			case <-g.drained:
			case <-time.After(100 * time.Millisecond):
			}
		})
	}
	return g.FS.Append(name, data)
}

// TestDaemonRecoveryRerunAnsweredOnce restarts a daemon over a journal
// holding an open INTENT whose request is on the log. Recovery re-runs it,
// and its answer must be on the log before the first drain reads the log
// from offset zero; otherwise the drain takes the re-run request for a
// host retry and answers it a second time from the cache.
func TestDaemonRecoveryRerunAnsweredOnce(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	mod := newCountingModule("rerun")
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(mod.module()); err != nil {
		t.Fatal(err)
	}
	id := smartfam.NewID()
	line, err := smartfam.Record{Kind: smartfam.KindRequest, ID: id, Payload: []byte("rerun")}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Append(smartfam.LogName("rerun"), line); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "journal")
	j, _, err := smartfam.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Intent(id, "rerun", 0); err != nil {
		t.Fatal(err)
	}

	// The re-run's answer is held back until the first drain has read the
	// log, unless Run waits for it first: then the hold times out.
	gate := &drainGate{FS: inner, log: smartfam.LogName("rerun"), drained: make(chan struct{})}
	d := smartfam.NewDaemon(gate, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	serve(t, d)

	// A fresh invocation is a barrier: the drain that serves it has read the
	// re-run request first, and made any replay before it returned. Then
	// wait for both batched answers, the re-run's and the barrier's.
	invokeAll(t, smartfam.NewClient(inner, time.Millisecond), "rerun", []string{"barrier"})
	records := d.Metrics().Counter("smartfam.fam.resp_batch_records")
	for deadline := time.Now().Add(10 * time.Second); records.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("resp_batch_records = %d, want 2 (the re-run and the barrier)", records.Value())
		}
	}

	mod.assertRanOnce(t, "rerun", "barrier")
	if n := responseCounts(t, inner, "rerun")[id]; n != 1 {
		t.Fatalf("the re-run request has %d response records, want exactly 1", n)
	}
}

// TestClientTornRequestBatchRunsEachOnce tears a four-record request batch
// on a record boundary. The host retries the batch whole, so two requests
// land twice; each must still run once and answer its caller once. The
// daemon dedupes a re-landed request, and the host router delivers only the
// first response per ID. The batch is held open until all four requests
// have joined, and the counters confirm the torn flush carried all four.
func TestClientTornRequestBatchRunsEachOnce(t *testing.T) {
	inner := smartfam.DirFS(t.TempDir())
	mod := newCountingModule("torn")
	reg := smartfam.NewRegistry(inner)
	if err := reg.Register(mod.module()); err != nil {
		t.Fatal(err)
	}
	serve(t, smartfam.NewDaemon(inner, reg,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(4)))

	ffs := faultfs.New(inner)
	c := smartfam.NewClient(ffs, time.Millisecond)
	hostMetrics := metrics.NewRegistry()
	c.SetMetrics(hostMetrics)
	// Arm the router first, so the four calls below only register and
	// append. The next leader, the first request's, holds its batch until
	// all four requests have joined it.
	invokeAll(t, c, "torn", []string{"warm"})
	smartfam.HoldNextBatch(t, 4)
	ffs.TearNext(1, 0.5)
	payloads := []string{"p0", "p1", "p2", "p3"} // equal-length records
	invokeAll(t, c, "torn", payloads)

	if ffs.Torn() != 1 {
		t.Fatalf("Torn() = %d, want 1", ffs.Torn())
	}
	// The warm call's batch, then the torn one.
	flushes := hostMetrics.Counter(metrics.FamBatchFlushes).Value()
	records := hostMetrics.Counter(metrics.FamBatchRecords).Value()
	if flushes != 2 || records != 1+int64(len(payloads)) {
		t.Fatalf("request batches: %d flushes carrying %d records, want the warm call's 1 then the torn batch's %d",
			flushes, records, len(payloads))
	}
	mod.assertRanOnce(t, append(payloads, "warm")...)
}
