package smartfam

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestCompactLogDropsAnsweredPairs(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	log := LogName("echo")
	// Two completed invocations and one pending request.
	for _, id := range []string{"a1", "a2"} {
		req, _ := (Record{Kind: KindRequest, ID: id, Payload: []byte("p")}).Marshal()
		res, _ := (Record{Kind: KindResponse, ID: id, Status: StatusOK, Payload: []byte("r")}).Marshal()
		if err := fsys.Append(log, req); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Append(log, res); err != nil {
			t.Fatal(err)
		}
	}
	pending, _ := (Record{Kind: KindRequest, ID: "p9", Payload: []byte("wait")}).Marshal()
	if err := fsys.Append(log, pending); err != nil {
		t.Fatal(err)
	}

	kept, err := reg.CompactLog("echo")
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 {
		t.Fatalf("kept %d records, want 1 pending request", kept)
	}
	data, err := ReadFrom(fsys, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "p9" || recs[0].Kind != KindRequest {
		t.Fatalf("compacted log = %+v", recs)
	}
}

func TestCompactLogEmptyAndUnknown(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	kept, err := reg.CompactLog("echo")
	if err != nil || kept != 0 {
		t.Fatalf("empty log compaction = (%d, %v)", kept, err)
	}
	if _, err := reg.CompactLog("ghost"); !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("unknown module err = %v", err)
	}
}

func TestCompactAll(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	for _, name := range []string{"m1", "m2"} {
		if err := reg.Register(ModuleFunc{ModuleName: name,
			Fn: func(_ context.Context, p []byte) ([]byte, error) { return p, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := reg.CompactAll()
	if err != nil || n != 2 {
		t.Fatalf("CompactAll = (%d, %v), want 2 logs", n, err)
	}
}

func TestDaemonSurvivesCompaction(t *testing.T) {
	// Serve, compact (shrinking the log under the daemon's offset), then
	// serve again: the offset-reset path plus the responded set must keep
	// everything exactly-once.
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(fsys, reg, WithPollInterval(time.Millisecond))
	runDaemon(t, d)

	c := NewClient(fsys, time.Millisecond)
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	if _, err := c.Invoke(ictx, "echo", []byte("one")); err != nil {
		t.Fatal(err)
	}
	size1, _, err := fsys.Stat(LogName("echo"))
	if err != nil {
		t.Fatal(err)
	}
	if size1 == 0 {
		t.Fatal("log empty after an invocation")
	}

	if _, err := reg.CompactLog("echo"); err != nil {
		t.Fatal(err)
	}
	size2, _, err := fsys.Stat(LogName("echo"))
	if err != nil {
		t.Fatal(err)
	}
	if size2 != 0 {
		t.Fatalf("fully-answered log not emptied: %d bytes", size2)
	}

	// The daemon's offset now exceeds the file size; a fresh invocation
	// must still be served exactly once.
	got, err := c.Invoke(ictx, "echo", []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:two" {
		t.Fatalf("post-compaction result = %q", got)
	}
	if n := d.Metrics().Counter("smartfam.daemon.requests").Value(); n != 2 {
		t.Fatalf("served %d requests, want exactly 2 (no replays)", n)
	}
}

func TestCompactionRegrowPastStaleOffset(t *testing.T) {
	// Regression: after compaction, the log regrows PAST a reader's stale
	// offset before the reader drains again. Without the generation
	// sidecar the reader would resume mid-record (or silently skip new
	// requests); with it, every new request is recovered.
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(fsys, reg) // not running; we drive drains by hand
	logName := LogName("echo")

	// One full served round to advance the daemon's offset.
	req1 := Record{Kind: KindRequest, ID: "req-one", Payload: []byte("1")}
	line, _ := req1.Marshal()
	if err := fsys.Append(logName, line); err != nil {
		t.Fatal(err)
	}
	got := d.drainRequests(t.Context(), logName)
	if len(got) != 1 || got[0].ID != "req-one" {
		t.Fatalf("first drain = %+v", got)
	}
	d.serve(context.Background(), "echo", got[0])
	if got := d.drainRequests(t.Context(), logName); len(got) != 0 {
		t.Fatalf("drain after serve returned %+v", got)
	}
	oldSize, _, err := fsys.Stat(logName)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := reg.CompactLog("echo"); err != nil {
		t.Fatal(err)
	}

	// Regrow beyond the old offset with fresh requests before any drain.
	var ids []string
	for grown := int64(0); grown <= oldSize; {
		id := NewID()
		ids = append(ids, id)
		line, _ := (Record{Kind: KindRequest, ID: id, Payload: []byte("x")}).Marshal()
		if err := fsys.Append(logName, line); err != nil {
			t.Fatal(err)
		}
		grown += int64(len(line))
	}

	got = d.drainRequests(t.Context(), logName)
	if len(got) != len(ids) {
		t.Fatalf("drain after regrow returned %d requests, want %d (records lost)",
			len(got), len(ids))
	}
	for i, id := range ids {
		if got[i].ID != id {
			t.Fatalf("request %d = %q, want %q", i, got[i].ID, id)
		}
	}
}

func TestCompactionPreservesPendingInvocation(t *testing.T) {
	// A request written before compaction, with the daemon started after:
	// the pending request must survive and be served.
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	req := Record{Kind: KindRequest, ID: NewID(), Payload: []byte("early")}
	line, _ := req.Marshal()
	if err := fsys.Append(LogName("echo"), line); err != nil {
		t.Fatal(err)
	}
	if kept, err := reg.CompactLog("echo"); err != nil || kept != 1 {
		t.Fatalf("compaction = (%d, %v), want pending kept", kept, err)
	}

	d := NewDaemon(fsys, reg, WithPollInterval(time.Millisecond))
	runDaemon(t, d)

	// Wait for the response record to appear.
	deadline := time.After(10 * time.Second)
	for {
		data, _ := ReadFrom(fsys, LogName("echo"), 0)
		recs, _, _, _ := ParseRecords(data)
		served := false
		for _, r := range recs {
			if r.Kind == KindResponse && r.ID == req.ID && string(r.Payload) == "echo:early" {
				served = true
			}
		}
		if served {
			return
		}
		select {
		case <-deadline:
			t.Fatal("pending request never served after compaction")
		case <-time.After(2 * time.Millisecond):
		}
	}
}
