package smartfam

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcsd/internal/sched"
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
	// A request shed by a full queue, then resubmitted under its ID: the
	// resubmit follows the shed response, so it is still pending.
	shedMsg := fmt.Errorf("%w: 1 jobs waiting", sched.ErrQueueFull).Error()
	for _, r := range []Record{
		{Kind: KindRequest, ID: "s1", Payload: []byte("p")},
		{Kind: KindResponse, ID: "s1", Status: StatusError, Payload: []byte(shedMsg)},
		{Kind: KindRequest, ID: "s1", Payload: []byte("p")},
	} {
		line, _ := r.Marshal()
		if err := fsys.Append(log, line); err != nil {
			t.Fatal(err)
		}
	}

	kept, _, err := reg.CompactLog("echo")
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Fatalf("kept %d records, want the pending request and the resubmit", kept)
	}
	data, err := ReadFrom(fsys, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "p9" || recs[1].ID != "s1" ||
		recs[0].Kind != KindRequest || recs[1].Kind != KindRequest {
		t.Fatalf("compacted log = %+v", recs)
	}
}

func TestCompactLogEmptyAndUnknown(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	kept, _, err := reg.CompactLog("echo")
	if err != nil || kept != 0 {
		t.Fatalf("empty log compaction = (%d, %v)", kept, err)
	}
	if _, _, err := reg.CompactLog("ghost"); !errors.Is(err, ErrUnknownModule) {
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
	if err != nil || n != 0 {
		t.Fatalf("CompactAll over two empty logs = (%d, %v), want 0 replaced", n, err)
	}
	appendRecords(t, fsys, LogName("m1"),
		Record{Kind: KindRequest, ID: "a", Payload: []byte("p")},
		Record{Kind: KindResponse, ID: "a", Status: StatusOK, Payload: []byte("p")})
	n, err = reg.CompactAll()
	if err != nil || n != 1 {
		t.Fatalf("CompactAll with one answered pair = (%d, %v), want 1 replaced", n, err)
	}
}

// TestCompactAllKeepsPendingOnlyLog pins that a log with nothing to drop
// is not replaced: it keeps its identity, so no reader rewinds and no host
// router re-appends its pending requests.
func TestCompactAllKeepsPendingOnlyLog(t *testing.T) {
	fsys := DirFS(t.TempDir())
	reg := NewRegistry(fsys)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	log := LogName("echo")
	appendRecords(t, fsys, log,
		Record{Kind: KindRequest, ID: "p1", Payload: []byte("x")},
		Record{Kind: KindRequest, ID: "p2", Payload: []byte("y")})
	size, _, id, err := fsys.(GenStat).StatGen(log)
	if err != nil {
		t.Fatal(err)
	}
	n, err := reg.CompactAll()
	if err != nil || n != 0 {
		t.Fatalf("CompactAll over pending requests = (%d, %v), want 0 replaced", n, err)
	}
	size2, _, id2, err := fsys.(GenStat).StatGen(log)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || size2 != size {
		t.Fatalf("pending-only log went from (size %d, id %d) to (size %d, id %d); want it untouched", size, id, size2, id2)
	}
}

func appendRecords(t *testing.T, fsys FS, log string, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		line, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := fsys.Append(log, line); err != nil {
			t.Fatal(err)
		}
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

	if _, _, err := reg.CompactLog("echo"); err != nil {
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
	// Regression: after compaction, the log regrows to or past a reader's
	// stale offset before the reader drains again. Without the generation
	// sidecar the reader would resume mid-record, or — when the log regrew
	// to exactly its old size with its mtime restored, the ABA case a
	// size-and-mtime watcher cannot see — read nothing at all; with it,
	// every new request is recovered.
	for _, tc := range []struct {
		name  string
		exact bool
	}{
		{name: "past", exact: false},
		{name: "exact-size-same-mtime", exact: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := DirFS(dir)
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
			// Answer it the way a served run does, and let the answer land.
			d.finish(context.Background(), "echo", got[0].ID, StatusOK, []byte("echo:1"))
			d.joinResponses()
			if got := d.drainRequests(t.Context(), logName); len(got) != 0 {
				t.Fatalf("drain after serve returned %+v", got)
			}
			oldSize, oldMtime, err := fsys.Stat(logName)
			if err != nil {
				t.Fatal(err)
			}

			if _, _, err := reg.CompactLog("echo"); err != nil {
				t.Fatal(err)
			}

			// Regrow before any drain: past the old offset, or to exactly it.
			var ids []string
			appendReq := func(payload string) int64 {
				id := NewID()
				ids = append(ids, id)
				line, _ := (Record{Kind: KindRequest, ID: id, Payload: []byte(payload)}).Marshal()
				if err := fsys.Append(logName, line); err != nil {
					t.Fatal(err)
				}
				return int64(len(line))
			}
			if tc.exact {
				regrowTo(t, fsys, logName, oldSize, appendReq)
				if err := os.Chtimes(filepath.Join(dir, logName), oldMtime, oldMtime); err != nil {
					t.Fatal(err)
				}
				size, mtime, err := fsys.Stat(logName)
				if err != nil || size != oldSize || !mtime.Equal(oldMtime) {
					t.Fatalf("regrown log = (%d, %v, %v), want (%d, %v)", size, mtime, err, oldSize, oldMtime)
				}
			} else {
				for grown := int64(0); grown <= oldSize; {
					grown += appendReq("x")
				}
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
		})
	}
}

// regrowTo appends requests through appendReq until logName is exactly
// size bytes long, padding the last one's payload to land on it.
func regrowTo(t *testing.T, fsys FS, logName string, size int64, appendReq func(payload string) int64) {
	t.Helper()
	cur, _, err := fsys.Stat(logName)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := (Record{Kind: KindRequest, ID: NewID(), Payload: []byte("x")}).Marshal()
	base := int64(len(line))
	for size-cur >= 2*base {
		cur += appendReq("x")
	}
	// base <= size-cur < 2*base: one padded record fills the rest, as a
	// payload byte that needs no escape adds exactly one byte to its line.
	pad := "x" + strings.Repeat("y", int(size-cur-base))
	if cur += appendReq(pad); cur != size {
		t.Fatalf("regrew to %d bytes, want %d", cur, size)
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
	if kept, _, err := reg.CompactLog("echo"); err != nil || kept != 1 {
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
