package nfs

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"mcsd/internal/smartfam"
)

// watchEventsSettled reads c's nfs.watch.events once its demux has
// finished every frame it read before the call. The counter moves after an
// event is delivered, so a stream can hold an event its frame has not yet
// counted; a round trip's response is read by the same demux after those
// frames, so once Ping returns each of them has been counted.
func watchEventsSettled(t *testing.T, c *Client) int64 {
	t.Helper()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	return c.met.watchEvents.Value()
}

// waitEvent receives one event from a watch stream with a deadline.
func waitEvent(t *testing.T, st smartfam.WatchStream) (smartfam.WatchEvent, bool) {
	t.Helper()
	select {
	case ev, ok := <-st.Events():
		return ev, ok
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a watch event")
		return smartfam.WatchEvent{}, false
	}
}

// TestWatchPushNotify pins the tentpole wire behaviour: a registered watch
// stream receives a notify frame for every matching mutation, carrying the
// file's identity: an append keeps it, a rewrite changes it.
func TestWatchPushNotify(t *testing.T) {
	c, _ := startServer(t)
	st, err := c.Watch("wc")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := c.Append("wc.log", []byte("one")); err != nil {
		t.Fatal(err)
	}
	ev, ok := waitEvent(t, st)
	if !ok {
		t.Fatal("stream closed unexpectedly")
	}
	if ev.Name != "wc.log" || ev.Gen == 0 {
		t.Fatalf("event = %+v, want wc.log with a nonzero identity", ev)
	}
	first := ev.Gen

	if err := c.Append("wc.log", []byte("two")); err != nil {
		t.Fatal(err)
	}
	ev, _ = waitEvent(t, st)
	if ev.Gen != first {
		t.Fatalf("identity changed across an append: %d then %d", first, ev.Gen)
	}
	if err := c.Create("wc.log"); err != nil {
		t.Fatal(err)
	}
	ev, _ = waitEvent(t, st)
	if ev.Gen == first {
		t.Fatalf("identity %d kept across a truncating Create", ev.Gen)
	}

	// A non-matching prefix must not reach this stream; a matching one on a
	// second local stream must (both share the one server registration).
	other, err := c.Watch("data")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := c.Append("data.bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ev, _ = waitEvent(t, other)
	if ev.Name != "data.bin" {
		t.Fatalf("other stream got %+v, want data.bin", ev)
	}
	select {
	case ev := <-st.Events():
		t.Fatalf("prefix-filtered stream leaked %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestWatchStreamClosesOnDisconnect pins the degraded-mode trigger: when
// the connection dies, every local stream's channel closes so consumers
// fall back to polling.
func TestWatchStreamClosesOnDisconnect(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer func() {
		ln.Close()
		srv.Shutdown()
	}()
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Watch("")
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	select {
	case _, ok := <-st.Events():
		if ok {
			// Drain any event raced in before the close.
			for range st.Events() { //nolint:revive
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after server shutdown")
	}
}

// TestServerClosesNonFrameConnection pins the one-framing rule: every frame
// opens with a 0x00 length byte, so a connection whose first byte is
// anything else is a malformed frame — the server closes it without
// answering, and a concurrent well-formed connection never notices.
func TestServerClosesNonFrameConnection(t *testing.T) {
	c, _ := startServer(t)
	if err := c.WriteFile("f.txt", []byte("steady")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	addr := c.conn.RemoteAddr().String()
	c.mu.Unlock()

	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A gob stream's opening bytes: a nonzero varint message length.
	if _, err := raw.Write([]byte{0x2c, 0xff, 0x81, 0x03, 0x01, 0x01}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	// EOF, or a reset when the close races bytes still unread server-side.
	if n, err := raw.Read(make([]byte, 64)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after a non-frame opening = (%d bytes, %v), want a bare close", n, err)
	}

	got, err := c.ReadFile("f.txt")
	if err != nil || string(got) != "steady" {
		t.Fatalf("concurrent connection disturbed: ReadFile = (%q, %v)", got, err)
	}
	if c.Reconnects() != 0 {
		t.Fatalf("concurrent connection redialed %d times, want 0", c.Reconnects())
	}
}

// TestStatGen pins the ABA case: a rewrite that restores a file's exact
// size still changes the identity OpStat reports.
func TestStatGen(t *testing.T) {
	c, _ := startServer(t)
	if err := c.WriteFile("f.log", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	size1, _, gen1, err := c.StatGen("f.log")
	if err != nil {
		t.Fatal(err)
	}
	if gen1 == 0 {
		t.Fatal("identity after first write = 0, want nonzero")
	}
	if err := c.WriteFile("f.log", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	size2, _, gen2, err := c.StatGen("f.log")
	if err != nil {
		t.Fatal(err)
	}
	if size2 != size1 {
		t.Fatalf("sizes differ (%d vs %d); rewrite should preserve size", size1, size2)
	}
	if gen2 == gen1 {
		t.Fatalf("identity %d kept across a same-size rewrite", gen2)
	}
}

// TestWatchSkipsStagingTemps pins that multi-chunk staged appends notify
// once for the committed target, never for the invisible staging temp.
func TestWatchSkipsStagingTemps(t *testing.T) {
	c, _ := startServer(t)
	st, err := c.Watch("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	big := make([]byte, MaxChunk+1024) // forces stage + commit
	if err := c.Append("big.log", big); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-st.Events():
			if !ok {
				t.Fatal("stream closed")
			}
			if ev.Name == "big.log" {
				return // the commit's notify; temps never surfaced
			}
			t.Fatalf("unexpected notify for %q", ev.Name)
		case <-deadline:
			t.Fatal("no notify for the committed append")
		}
	}
}
