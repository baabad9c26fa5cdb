package nfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
)

// discardServer accepts connections and reads requests without ever
// answering — a place to park RPCs in flight so a disconnect can be
// injected at a known point.
type discardServer struct {
	ln       net.Listener
	accepted chan struct{} // closed once the first connection is recorded

	mu    sync.Mutex
	conns []net.Conn
}

func startDiscardServer(t *testing.T) *discardServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ds := &discardServer{ln: ln, accepted: make(chan struct{})}
	go func() {
		var once sync.Once
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ds.mu.Lock()
			ds.conns = append(ds.conns, c)
			ds.mu.Unlock()
			once.Do(func() { close(ds.accepted) })
			go io.Copy(io.Discard, c) //nolint:errcheck
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		ds.closeConns()
	})
	return ds
}

// dropConns severs every accepted connection — the injected network fault.
// Dial returns before the accept goroutine has recorded the connection,
// and requests can be in flight by then, so it first waits for one:
// severing nothing would leave them parked forever.
func (d *discardServer) dropConns(t *testing.T) {
	t.Helper()
	select {
	case <-d.accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("discard server never accepted the connection")
	}
	d.closeConns()
}

func (d *discardServer) closeConns() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

// waitInflight polls until want requests hold window slots and have their
// tags registered. The gauge alone is not enough: it counts a request from
// its slot, and one still short of its tag when the connection drops
// redials and goes out on the next connection instead.
func waitInflight(t *testing.T, c *Client, want int64) {
	t.Helper()
	g := c.Metrics().Gauge(metrics.NFSClientInflight)
	pending := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.pending))
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != want || pending() != want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge %d with %d tags registered, want %d", g.Value(), pending(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineDisconnectFailsAllInflight parks a full batch of
// non-idempotent requests in the pipeline and severs the connection: every
// tag must resolve with ErrDisconnected exactly once (each waiter gets one
// outcome; a double delivery would wedge the demux on the size-1 future
// channel) and every window slot must come back.
func TestPipelineDisconnectFailsAllInflight(t *testing.T) {
	ds := startDiscardServer(t)
	c, err := Dial(ds.ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const K = 16
	errCh := make(chan error, K)
	for i := 0; i < K; i++ {
		go func(i int) {
			errCh <- c.Append(fmt.Sprintf("f%d.log", i), []byte("x"))
		}(i)
	}
	waitInflight(t, c, K)
	ds.dropConns(t)

	for i := 0; i < K; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("in-flight append resolved with %v, want ErrDisconnected", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("in-flight append %d never resolved after disconnect", i)
		}
	}
	// Exactly K outcomes: window fully drained, no stragglers.
	waitInflight(t, c, 0)
	select {
	case err := <-errCh:
		t.Fatalf("extra outcome delivered after all %d tags resolved: %v", K, err)
	default:
	}
}

// TestIdempotentReplayAfterDisconnect parks an idempotent read on a
// black-hole server, severs the link, and expects the client to replay it
// transparently over the redial target — a real server holding the file.
func TestIdempotentReplayAfterDisconnect(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { ln.Close(); srv.Shutdown() })
	payload := bytes.Repeat([]byte("replay"), 200)
	if err := os.WriteFile(filepath.Join(root, "data.bin"), payload, 0o644); err != nil {
		t.Fatal(err)
	}

	ds := startDiscardServer(t)
	c, err := Dial(ds.ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRedial(func() (net.Conn, error) {
		return net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	})

	buf := make([]byte, 600)
	var n int
	var rerr error
	done := make(chan struct{})
	go func() {
		n, rerr = c.ReadAt("data.bin", buf, 0)
		close(done)
	}()
	waitInflight(t, c, 1)
	ds.dropConns(t)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replayed read never resolved")
	}
	if rerr != nil {
		t.Fatalf("idempotent read not replayed across disconnect: %v", rerr)
	}
	if n != len(buf) || !bytes.Equal(buf, payload[:len(buf)]) {
		t.Fatalf("replayed read returned %d bytes with wrong content", n)
	}
	if got := c.Metrics().Counter(metrics.NFSClientReplays).Value(); got < 1 {
		t.Fatalf("replays counter = %d, want >= 1", got)
	}
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want >= 1", c.Reconnects())
	}
}

// TestNonIdempotentNotReplayed parks an Append (not safe to replay: it may
// have executed server-side) on a black-hole server with a healthy redial
// target available. The disconnect must surface ErrDisconnected to the
// caller rather than silently re-executing — and the client must still
// recover for the next operation.
func TestNonIdempotentNotReplayed(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { ln.Close(); srv.Shutdown() })

	ds := startDiscardServer(t)
	c, err := Dial(ds.ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRedial(func() (net.Conn, error) {
		return net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	})

	var aerr error
	done := make(chan struct{})
	go func() {
		aerr = c.Append("once.log", []byte("must not duplicate"))
		close(done)
	}()
	waitInflight(t, c, 1)
	ds.dropConns(t)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight append never resolved")
	}
	if !errors.Is(aerr, ErrDisconnected) {
		t.Fatalf("non-idempotent append resolved with %v, want ErrDisconnected", aerr)
	}
	if got := c.Metrics().Counter(metrics.NFSClientReplays).Value(); got != 0 {
		t.Fatalf("replays counter = %d for a non-idempotent op, want 0", got)
	}
	// The pipeline recovers: the next call redials the healthy server.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
}

// TestConcurrentPoolUsersSeeCorrectResponses drives many concurrent mixed
// readers through one pipelined connection and checks every response lands
// with its own request (tag demux, not arrival order).
func TestPipelineDemuxMatchesTags(t *testing.T) {
	c, root := startServer(t)
	const files = 8
	for i := 0; i < files; i++ {
		content := bytes.Repeat([]byte{byte('a' + i)}, 1000+i)
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("t%d.dat", i)), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, files*8)
	for round := 0; round < 8; round++ {
		for i := 0; i < files; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				want := bytes.Repeat([]byte{byte('a' + i)}, 1000+i)
				got, err := c.ReadFile(fmt.Sprintf("t%d.dat", i))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("t%d.dat: got %d bytes of %q, want %d of %q",
						i, len(got), got[:1], len(want), want[:1])
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestOpenReaderKeepsChunksInFlight is the read-ahead contract that lets a
// stream run at link speed: over a 10 ms server-to-client delay, an
// OpenReader stream of more than 8 chunks must have more than one chunk
// request outstanding at once instead of paying the delay chunk by chunk.
func TestOpenReaderKeepsChunksInFlight(t *testing.T) {
	root := t.TempDir()
	payload := make([]byte, 8*MaxChunk+17)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	if err := os.WriteFile(filepath.Join(root, "stream.dat"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(netsim.DelayListener(ctx, ln, 10*time.Millisecond)) //nolint:errcheck
	t.Cleanup(func() { cancel(); ln.Close(); srv.Shutdown() })
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.OpenReader("stream.dat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed %d bytes with wrong content, want %d", len(got), len(payload))
	}
	if peak := c.Metrics().Gauge(metrics.NFSClientInflight).Peak(); peak < 2 {
		t.Fatalf("peak in-flight chunk requests = %d, want > 1: the stream paid one delay per chunk", peak)
	}
}
