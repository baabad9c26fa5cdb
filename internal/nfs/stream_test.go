package nfs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/smartfam"
)

// startStreamServer serves a fresh directory, its replies delayed by
// oneWay (none when 0), and returns a client, the server and the root.
func startStreamServer(t *testing.T, oneWay time.Duration) (*Client, *Server, string) {
	t.Helper()
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var served net.Listener = ln
	if oneWay > 0 {
		served = netsim.DelayListener(ctx, ln, oneWay)
	}
	go srv.Serve(served) //nolint:errcheck
	t.Cleanup(func() { cancel(); ln.Close(); srv.Shutdown() })
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv, root
}

// streamPayload writes a patterned file of size bytes and returns it.
func streamPayload(t *testing.T, root, name string, size int) []byte {
	t.Helper()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	if err := os.WriteFile(filepath.Join(root, name), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	return payload
}

// opCount reads the server's request counter for op.
func opCount(srv *Server, op string) int64 {
	return srv.Metrics().Counter(metrics.NFSOpPrefix + op).Value()
}

// streamAll opens name, reads it to EOF and closes the reader.
func streamAll(t *testing.T, c *Client, name string) []byte {
	t.Helper()
	r, err := c.OpenReader(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStreamWireCount pins the stream's wire cost on a file longer than
// the read-ahead window and exactly k chunks long: k ReadAt requests and no
// Stat, for OpenReader and for ReadFile alike. Each reply reports the
// file's size, so nothing is asked at or past the end.
func TestStreamWireCount(t *testing.T) {
	const k = readAheadDepth + 2
	c, srv, root := startStreamServer(t, 0)
	payload := streamPayload(t, root, "k.dat", k*MaxChunk)

	if got := streamAll(t, c, "k.dat"); !bytes.Equal(got, payload) {
		t.Fatalf("streamed %d bytes with wrong content, want %d", len(got), len(payload))
	}
	if n := opCount(srv, OpReadAt); n != k {
		t.Errorf("stream issued %d ReadAt requests, want %d", n, k)
	}
	got, err := c.ReadFile("k.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile returned %d bytes with wrong content, want %d", len(got), len(payload))
	}
	if n := opCount(srv, OpReadAt); n != 2*k {
		t.Errorf("ReadFile issued %d ReadAt requests, want %d", n-k, k)
	}
	if n := opCount(srv, OpStat); n != 0 {
		t.Errorf("stream and ReadFile issued %d Stat requests, want 0", n)
	}
}

// TestStreamOpenToEOFWithinTwoDelays is the latency half of the same
// contract: over a 20 ms reply delay, opening a 4 MiB file and reading it
// to EOF costs one round trip plus transfer — no serial Stat before the
// first prefetch, no wait on requests past the end after the last byte.
// The timed reads discard their bytes, and the best of three is timed, so
// a stalled scheduler on a loaded machine does not fail a path that is
// right. Under the race detector the transfer alone costs more than the
// bound's margin, so only the bytes are checked there.
func TestStreamOpenToEOFWithinTwoDelays(t *testing.T) {
	const delay = 20 * time.Millisecond
	c, _, root := startStreamServer(t, delay)
	payload := streamPayload(t, root, "four.dat", 4*MaxChunk)
	if got := streamAll(t, c, "four.dat"); !bytes.Equal(got, payload) {
		t.Fatalf("streamed %d bytes with wrong content, want %d", len(got), len(payload))
	}
	best := time.Duration(1<<63 - 1)
	for range 3 {
		start := time.Now()
		r, err := c.OpenReader("four.dat")
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, r)
		r.Close()
		best = min(best, time.Since(start))
		if err != nil || n != int64(len(payload)) {
			t.Fatalf("streamed %d bytes (%v), want %d", n, err, len(payload))
		}
	}
	if raceEnabled {
		t.Logf("race detector on: open to EOF took %v at best, not checked", best)
		return
	}
	if best >= 2*delay {
		t.Fatalf("open to EOF took %v at best, want < %v (2 × the %v delay)", best, 2*delay, delay)
	}
}

// TestStreamEmptyFile: an empty file opens, and its first Read is io.EOF.
func TestStreamEmptyFile(t *testing.T) {
	c, _, root := startStreamServer(t, 0)
	streamPayload(t, root, "empty.dat", 0)
	r, err := c.OpenReader("empty.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n, err := r.Read(make([]byte, 16)); n != 0 || err != io.EOF {
		t.Fatalf("first Read of an empty file = (%d, %v), want (0, io.EOF)", n, err)
	}
	if got, err := c.ReadFile("empty.dat"); err != nil || len(got) != 0 {
		t.Fatalf("ReadFile of an empty file = (%d bytes, %v), want (0, nil)", len(got), err)
	}
}

// TestStreamMissingFile: a missing file fails at open with ErrNotExist, and
// the prefetch window the open sent is settled — no slot stays held.
func TestStreamMissingFile(t *testing.T) {
	c, _, _ := startStreamServer(t, 0)
	if _, err := c.OpenReader("no-such.dat"); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("OpenReader of a missing file: %v, want ErrNotExist", err)
	}
	if _, err := c.ReadFile("no-such.dat"); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("ReadFile of a missing file: %v, want ErrNotExist", err)
	}
	if _, err := c.ReadAt("no-such.dat", make([]byte, 2*MaxChunk), 0); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("multi-chunk ReadAt of a missing file: %v, want ErrNotExist", err)
	}
	// The demux releases a reply's slot just after handing it over, so the
	// release is waited for, not sampled.
	waitInflight(t, c, 0)
	if n := len(c.window); n != 0 {
		t.Fatalf("after failed opens %d window slots are held, want 0", n)
	}
}

// TestStreamSizes streams files around the chunk edges. The first window
// goes out before any reply reports the size, so a file shorter than it
// still costs the whole window; past it, every request is inside the
// file. An opened stream's Len is the file size (a native partition
// fragment sizes its buffer from it), and ReadFile and ReadAt agree with
// the stream.
func TestStreamSizes(t *testing.T) {
	c, srv, root := startStreamServer(t, 0)
	for _, size := range []int{1, MaxChunk - 1, MaxChunk, MaxChunk + 1, 9*MaxChunk + 17} {
		payload := streamPayload(t, root, "s.dat", size)
		r, err := c.OpenReader("s.dat")
		if err != nil {
			t.Fatal(err)
		}
		if n := r.(interface{ Len() int }).Len(); n != size {
			t.Errorf("size %d: an opened stream reports Len %d, want the file size", size, n)
		}
		r.Close()
		before := opCount(srv, OpReadAt)
		got := streamAll(t, c, "s.dat")
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: streamed %d bytes with wrong content", size, len(got))
		}
		want := int64(max(readAheadDepth, (size+MaxChunk-1)/MaxChunk))
		if n := opCount(srv, OpReadAt) - before; n != want {
			t.Errorf("size %d: stream issued %d ReadAt requests, want %d", size, n, want)
		}
		if got, err := c.ReadFile("s.dat"); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: ReadFile = (%d bytes, %v), want the file", size, len(got), err)
		}
		buf := make([]byte, size+5)
		if n, err := c.ReadAt("s.dat", buf, 0); n != size || err != io.EOF || !bytes.Equal(buf[:n], payload) {
			t.Fatalf("size %d: ReadAt past the end = (%d, %v), want (%d, io.EOF) and the file", size, n, err, size)
		}
		if n, err := c.ReadAt("s.dat", buf[:size-size/2], int64(size/2)); n != size-size/2 || err != nil || !bytes.Equal(buf[:n], payload[size/2:]) {
			t.Fatalf("size %d: ReadAt of the second half = (%d, %v), want (%d, nil) and its bytes", size, n, err, size-size/2)
		}
	}
	if n := opCount(srv, OpStat); n != 0 {
		t.Errorf("issued %d Stat requests, want 0", n)
	}
}

// TestStreamAppendedDuringStream pins the rule for a file that grows under
// a stream: every request goes up to the size the last reply reported, so
// growth that lands before a request is read; the stream ends at the first
// reply that reaches the file's end as of that reply, and growth after it
// is not. Every byte delivered is the file's byte at that offset.
func TestStreamAppendedDuringStream(t *testing.T) {
	c, _, root := startStreamServer(t, 0)
	path := filepath.Join(root, "grow.dat")
	payload := streamPayload(t, root, "grow.dat", (readAheadDepth+2)*MaxChunk+5)
	grow := func(n int) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		more := bytes.Repeat([]byte{byte(len(payload))}, n)
		if _, err := f.Write(more); err != nil {
			t.Fatal(err)
		}
		f.Close()
		payload = append(payload, more...)
	}

	r, err := c.OpenReader("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The open consumed the first reply; the requests for the last two
	// chunks go out only as the next replies are consumed, after this.
	grow(MaxChunk + 7)
	got := make([]byte, len(payload)-1)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("reading the grown file: %v", err)
	}
	// The reply that reached the end is in hand: what lands now is past
	// the end of this stream.
	end := len(payload)
	grow(100)
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, rest...)
	if len(got) != end || !bytes.Equal(got, payload[:end]) {
		t.Fatalf("stream of a growing file returned %d bytes (content match %v), want the %d bytes up to its first EOF reply",
			len(got), bytes.Equal(got, payload[:min(len(got), len(payload))]), end)
	}
}
