package nfs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcsd/internal/smartfam"
)

// dialAlso opens a second client on c's server: a writer whose mutations
// reach c only through notify frames.
func dialAlso(t *testing.T, c *Client) *Client {
	t.Helper()
	c.mu.Lock()
	addr := c.conn.RemoteAddr().String()
	c.mu.Unlock()
	o, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	return o
}

// TestPrefixSetRoundTrip pins the OpWatch set encoding: the empty set
// (watch nothing) and {""} (watch the whole share) stay distinct.
func TestPrefixSetRoundTrip(t *testing.T) {
	for _, set := range [][]string{nil, {""}, {"a.log"}, {"", "a.log"}, {"a.log", "b.log", "c/"}} {
		if got := decodePrefixes(encodePrefixes(set)); !reflect.DeepEqual(got, set) {
			t.Fatalf("round trip of %q = %q", set, got)
		}
	}
}

// TestWatchInlineAppendMatchesReadAt pins the notify-carried payload: an
// append's notify holds exactly the bytes a ReadAt of (Off, len(Data))
// returns — from this connection or another, after an out-of-band writer
// grew the file behind the server's back, and at the inline cap.
func TestWatchInlineAppendMatchesReadAt(t *testing.T) {
	c, root := startServer(t)
	st, err := c.Watch("fam.log")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	other := dialAlso(t, c)
	if err := os.WriteFile(filepath.Join(root, "fam.log"), []byte("out-of-band\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, w := range []*Client{c, other, c, other} {
		data := bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))
		if i == 3 {
			data = bytes.Repeat([]byte{'z'}, inlineNotifyMax)
		}
		if err := w.Append("fam.log", data); err != nil {
			t.Fatal(err)
		}
		ev, ok := waitEvent(t, st)
		if !ok {
			t.Fatal("stream closed")
		}
		if !bytes.Equal(ev.Data, data) {
			t.Fatalf("append %d: notify carried %d bytes, want the %d appended", i, len(ev.Data), len(data))
		}
		got := make([]byte, len(ev.Data))
		if _, err := c.ReadAt("fam.log", got, ev.Off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ev.Data) {
			t.Fatalf("append %d: ReadAt(%d, %d) differs from the notify's bytes", i, ev.Off, len(ev.Data))
		}
	}
}

// TestWatchBareNotifies pins which mutations stay bare: everything but an
// append within the cap. Staging temps raise no notify at all.
func TestWatchBareNotifies(t *testing.T) {
	c, _ := startServer(t)
	st, err := c.Watch("f.")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	other := dialAlso(t, c)
	if err := c.WriteFile("f.src", []byte("renamed")); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, st)
	for _, m := range []struct {
		name string
		do   func() error
	}{
		{"create", func() error { return c.Create("f.log") }},
		{"write", func() error { return c.WriteFile("f.log", []byte("whole file")) }},
		{"rename", func() error { return c.Rename("f.src", "f.log") }},
		{"over-cap append", func() error { return c.Append("f.log", make([]byte, inlineNotifyMax+1)) }},
		{"staged append + commit", func() error { return c.Append("f.log", make([]byte, MaxChunk+1)) }},
	} {
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		// The marker's notify queues behind every notify m raised; m's own
		// append was delivered locally before it returned.
		if err := other.Append("f.mark", []byte("m")); err != nil {
			t.Fatal(err)
		}
		for {
			ev, ok := waitEvent(t, st)
			if !ok {
				t.Fatal("stream closed")
			}
			if ev.Name == "f.mark" {
				break
			}
			if strings.Contains(ev.Name, ".append-") {
				t.Fatalf("%s: notify for staging temp %q", m.name, ev.Name)
			}
			if len(ev.Data) != 0 || ev.Off != 0 {
				t.Fatalf("%s: notify for %s carries %d bytes at %d, want bare", m.name, ev.Name, len(ev.Data), ev.Off)
			}
		}
	}
}

// TestWatchPrefixSetFilters pins the server-side filter: a connection
// hears only files under the prefixes its live streams watch — not the
// share's status rewrites, not a sibling module's log, and not a prefix
// whose last stream closed.
func TestWatchPrefixSetFilters(t *testing.T) {
	c, _ := startServer(t)
	other := dialAlso(t, c)
	a, err := c.Watch("a.log")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := c.Watch("b.log")
	if err != nil {
		t.Fatal(err)
	}
	frames := c.met.watchEvents
	before := frames.Value()
	for _, name := range []string{".queue", ".heartbeat", "c.log", "a.log"} {
		if err := other.Append(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if ev, _ := waitEvent(t, a); ev.Name != "a.log" {
		t.Fatalf("a stream got %+v", ev)
	}
	if got := watchEventsSettled(t, c) - before; got != 1 {
		t.Fatalf("%d notify frames reached the client, want 1 (a.log only)", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	before = frames.Value()
	for _, name := range []string{"b.log", "a.log"} {
		if err := other.Append(name, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	waitEvent(t, a)
	if got := watchEventsSettled(t, c) - before; got != 1 {
		t.Fatalf("%d notify frames after b closed, want 1 (a.log only)", got)
	}
}

// TestWatchPrefixSetSurvivesReconnect pins re-arming: streams die with
// their connection, and the registration the consumers' re-Watches build
// on the redialed connection carries every prefix again, inline bytes
// included.
func TestWatchPrefixSetSurvivesReconnect(t *testing.T) {
	c, _ := startServer(t)
	other := dialAlso(t, c)
	var streams []smartfam.WatchStream
	for _, p := range []string{"a.log", "b.log"} {
		st, err := c.Watch(p)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	for _, st := range streams {
		for {
			if _, ok := waitEvent(t, st); !ok {
				break
			}
		}
	}
	streams = streams[:0]
	for _, p := range []string{"a.log", "b.log"} {
		st, err := c.Watch(p)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		streams = append(streams, st)
	}
	if c.Reconnects() == 0 {
		t.Fatal("re-Watch did not redial")
	}
	before := c.met.watchEvents.Value()
	for _, name := range []string{"c.log", "a.log", "b.log"} {
		if err := other.Append(name, []byte("after-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"a.log", "b.log"} {
		ev, ok := waitEvent(t, streams[i])
		if !ok || ev.Name != name || string(ev.Data) != "after-"+name {
			t.Fatalf("stream %s got %+v (open %v)", name, ev, ok)
		}
	}
	if got := watchEventsSettled(t, c) - before; got != 2 {
		t.Fatalf("%d notify frames after the reconnect, want 2", got)
	}
}
