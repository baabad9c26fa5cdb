package smartfam

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/sched"
)

func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Completed) != 0 || len(state.Intents) != 0 {
		t.Fatalf("fresh journal state not empty: %+v", state)
	}
	if err := j.Intent("id1", "echo", 42); err != nil {
		t.Fatal(err)
	}
	if err := j.Intent("id2", "echo", 99); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("id1", "echo", StatusOK, []byte("result!")); err != nil {
		t.Fatal(err)
	}
	if err := j.Resp("id1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, state2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if state2.Corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", state2.Corrupt)
	}
	c, ok := state2.Completed["id1"]
	if !ok || c.Module != "echo" || c.Status != StatusOK || string(c.Payload) != "result!" {
		t.Fatalf("completed id1 = %+v, %v", c, ok)
	}
	if !state2.Acked["id1"] {
		t.Fatal("id1 not acked")
	}
	e, ok := state2.Intents["id2"]
	if !ok || e.Module != "echo" || e.Offset != 99 {
		t.Fatalf("intent id2 = %+v, %v", e, ok)
	}
	if _, open := state2.Intents["id1"]; open {
		t.Fatal("id1 still an open intent after DONE")
	}
}

func TestJournalSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Intent("good", "echo", 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate the crash tearing the last append mid-line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\nDONE good echo ok =hel"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if state.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1 (the torn DONE)", state.Corrupt)
	}
	// The torn DONE is discarded, so the intent stays open: recovery
	// re-runs rather than trusting half a result.
	if _, open := state.Intents["good"]; !open {
		t.Fatal("intent lost alongside the torn DONE")
	}
	if len(state.Completed) != 0 {
		t.Fatalf("torn DONE produced a cached response: %+v", state.Completed)
	}
}

// A DONE payload travels raw in the journal too: one holding spaces,
// newlines and escape bytes must come back intact from replay, and again
// after compaction rewrote it — twice over, since every open compacts.
func TestJournalDonePayloadSurvivesReplayAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{}
	for i, p := range edgePayloads {
		id := fmt.Sprintf("d%d", i)
		payloads[id] = p
		if err := j.Done(id, "echo", StatusOK, p); err != nil {
			t.Fatal(err)
		}
	}
	const mixed = "two words \n a line \\n later \t\xc2\xa0 end "
	payloads["mixed"] = []byte(mixed)
	if err := j.Done("mixed", "echo", StatusError, []byte(mixed)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		_, state, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if state.Corrupt != 0 || len(state.Completed) != len(payloads) {
			t.Fatalf("open %d: corrupt %d, %d completed; want 0 and %d", round, state.Corrupt, len(state.Completed), len(payloads))
		}
		for id, want := range payloads {
			if got := state.Completed[id].Payload; !bytes.Equal(got, want) {
				t.Fatalf("open %d: %s payload %q, want %q", round, id, got, want)
			}
		}
	}
}

// A base64-era DONE line is CRC-valid but has no sigil: replay counts it
// corrupt and leaves its intent open (re-run), rather than caching the
// base64 text as the result.
func TestJournalCountsBase64EraDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, []byte(sealed("INTENT old echo 0")+sealed("DONE old echo ok aGk=")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, state, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if state.Corrupt != 1 || len(state.Completed) != 0 {
		t.Fatalf("corrupt %d, completed %+v; want the DONE counted corrupt", state.Corrupt, state.Completed)
	}
	if _, open := state.Intents["old"]; !open {
		t.Fatal("intent closed by a DONE replay could not read")
	}
}

func TestJournalCompactsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Many superseded lines for the same request.
	for i := 0; i < 50; i++ {
		if err := j.Intent("r", "echo", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Done("r", "echo", StatusOK, []byte("v"))
	j.Resp("r")
	j.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("journal not compacted: %d -> %d bytes", before.Size(), after.Size())
	}
}

// A daemon that crashed after journaling INTENT but before running the
// module must re-run the request on restart.
func TestDaemonRecoversIntent(t *testing.T) {
	dir := t.TempDir()
	share := DirFS(dir)
	jpath := filepath.Join(dir, ".journal")
	reg := NewRegistry(share)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	// The "crashed predecessor": request on the share, INTENT journaled,
	// no DONE, no response.
	req := Record{Kind: KindRequest, ID: "lost1", Payload: []byte("redo")}
	line, _ := req.Marshal()
	if err := share.Append(LogName("echo"), line); err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Intent("lost1", "echo", 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	d := NewDaemon(share, reg, WithPollInterval(time.Millisecond), WithJournal(jpath))
	runDaemon(t, d)

	waitForResponse(t, share, "echo", "lost1", "echo:redo")
	waitRecovered(t, d, 1)
}

// A daemon that crashed after DONE but before the response landed must
// re-append the CACHED result — and must NOT run the module again.
func TestDaemonReplaysCachedDone(t *testing.T) {
	dir := t.TempDir()
	share := DirFS(dir)
	jpath := filepath.Join(dir, ".journal")
	var executions atomic.Int64
	mod := ModuleFunc{ModuleName: "once", Fn: func(_ context.Context, p []byte) ([]byte, error) {
		executions.Add(1)
		return []byte("freshly computed"), nil
	}}
	reg := NewRegistry(share)
	if err := reg.Register(mod); err != nil {
		t.Fatal(err)
	}
	req := Record{Kind: KindRequest, ID: "done1", Payload: []byte("p")}
	line, _ := req.Marshal()
	if err := share.Append(LogName("once"), line); err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	j.Intent("done1", "once", 0)
	j.Done("done1", "once", StatusOK, []byte("cached result"))
	j.Close()

	d := NewDaemon(share, reg, WithPollInterval(time.Millisecond), WithJournal(jpath))
	runDaemon(t, d)

	waitForResponse(t, share, "once", "done1", "cached result")
	if n := executions.Load(); n != 0 {
		t.Fatalf("module executed %d times during replay, want 0", n)
	}
	waitRecovered(t, d, 1)
}

// A host retry that reuses its original request ID must be answered from
// the cache — one execution, two response appends.
func TestDaemonDedupesHostRetry(t *testing.T) {
	dir := t.TempDir()
	share := DirFS(dir)
	jpath := filepath.Join(dir, ".journal")
	var executions atomic.Int64
	mod := ModuleFunc{ModuleName: "count", Fn: func(_ context.Context, p []byte) ([]byte, error) {
		executions.Add(1)
		return append([]byte("out:"), p...), nil
	}}
	reg := NewRegistry(share)
	if err := reg.Register(mod); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(share, reg, WithPollInterval(time.Millisecond), WithJournal(jpath))
	runDaemon(t, d)

	c := NewClient(share, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	id := NewID()
	got, err := c.InvokeID(ictx, "count", id, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "out:v" {
		t.Fatalf("result = %q", got)
	}

	// The retry: same ID, appended after the response already exists. The
	// daemon must replay the cached response (the retrying client only
	// watches the log from its own append onward).
	got2, err := c.InvokeID(ictx, "count", id, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "out:v" {
		t.Fatalf("retried result = %q", got2)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("module executed %d times, want exactly 1", n)
	}
	if v := d.Metrics().Counter("smartfam.daemon.deduped").Value(); v < 1 {
		t.Fatalf("deduped = %d, want >= 1", v)
	}
}

// Restarting a daemon over a share whose log holds an answered pair must
// not re-serve the request (two-pass drain regression).
func TestDaemonRestartDoesNotReserveAnsweredPair(t *testing.T) {
	dir := t.TempDir()
	share := DirFS(dir)
	var executions atomic.Int64
	mod := ModuleFunc{ModuleName: "pair", Fn: func(_ context.Context, p []byte) ([]byte, error) {
		executions.Add(1)
		return p, nil
	}}
	// An answered pair already on the share (from a previous daemon life).
	req := Record{Kind: KindRequest, ID: "old1", Payload: []byte("x")}
	res := Record{Kind: KindResponse, ID: "old1", Status: StatusOK, Payload: []byte("x")}
	for _, r := range []Record{req, res} {
		line, _ := r.Marshal()
		if err := share.Append(LogName("pair"), line); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry(share)
	if err := reg.Register(mod); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(share, reg, WithPollInterval(time.Millisecond))
	runDaemon(t, d)

	// Serve one fresh request to prove the daemon is alive and draining.
	c := NewClient(share, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	if _, err := c.Invoke(ictx, "pair", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("module executed %d times, want 1 (old pair must not re-run)", n)
	}
}

// A queue-full shed is backpressure, not an answer: a daemon restarted
// over a log holding a request and its shed must neither re-run the shed
// request nor answer its resubmit (same ID) from the cache — the
// resubmit runs, exactly once.
func TestDaemonRestartTreatsShedAsBackpressure(t *testing.T) {
	dir := t.TempDir()
	share := DirFS(dir)
	var executions atomic.Int64
	mod := ModuleFunc{ModuleName: "pair", Fn: func(_ context.Context, p []byte) ([]byte, error) {
		executions.Add(1)
		return p, nil
	}}
	shedMsg := fmt.Errorf("%w: 1 jobs waiting", sched.ErrQueueFull).Error()
	req := Record{Kind: KindRequest, ID: "shed1", Payload: []byte("x")}
	shed := Record{Kind: KindResponse, ID: "shed1", Status: StatusError, Payload: []byte(shedMsg)}
	for _, r := range []Record{req, shed} {
		line, _ := r.Marshal()
		if err := share.Append(LogName("pair"), line); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry(share)
	if err := reg.Register(mod); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(share, reg, WithPollInterval(time.Millisecond),
		WithJournal(filepath.Join(t.TempDir(), "journal")))
	runDaemon(t, d)

	c := NewClient(share, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	got, err := c.InvokeID(ictx, "pair", "shed1", []byte("again"))
	if err != nil {
		t.Fatalf("resubmit after shed: %v", err)
	}
	if string(got) != "again" {
		t.Fatalf("resubmit result = %q", got)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("module executed %d times, want 1 (the resubmit only)", n)
	}
	if v := d.Metrics().Counter("smartfam.daemon.deduped").Value(); v != 0 {
		t.Fatalf("deduped = %d, want 0 (a shed is not cached)", v)
	}

	// Compaction drops the shed pair and the answered resubmit alike.
	if kept, err := reg.CompactLog("pair"); err != nil || kept != 0 {
		t.Fatalf("compaction = (%d, %v), want nothing pending", kept, err)
	}
}

// waitForResponse polls the module log until a response with the given ID
// and payload appears.
// waitRecovered waits until d has counted n recovery replays. A replay is
// counted once its append returns, so its response can be on the log
// first: the count is waited for, not sampled.
func waitRecovered(t *testing.T, d *Daemon, n int64) {
	t.Helper()
	c := d.Metrics().Counter("smartfam.daemon.recovered")
	for deadline := time.Now().Add(10 * time.Second); c.Value() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("recovered = %d, want >= %d", c.Value(), n)
		}
	}
}

func waitForResponse(t *testing.T, fsys FS, module, id, want string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		data, _ := ReadFrom(fsys, LogName(module), 0)
		recs, _, _, _ := ParseRecords(data)
		for _, r := range recs {
			if r.Kind == KindResponse && r.ID == id {
				if string(r.Payload) != want {
					t.Fatalf("response payload = %q, want %q", r.Payload, want)
				}
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("no response for %s/%s", module, id)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
