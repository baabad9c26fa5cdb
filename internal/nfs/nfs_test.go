package nfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mcsd/internal/netsim"
	"mcsd/internal/smartfam"
)

// startServer spins up a server over a temp dir and returns a connected
// client plus the export root.
func startServer(t *testing.T) (*Client, string) {
	t.Helper()
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
	})
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, root
}

func TestPing(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	c, _ := startServer(t)
	data := []byte("file contents over the wire")
	if err := c.WriteFile("data.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("data.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestLargeFileChunked(t *testing.T) {
	c, _ := startServer(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 3<<17) // 3 MiB, > MaxChunk
	if err := c.WriteFile("big.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file corrupted in transit")
	}
}

func TestChunkSum(t *testing.T) {
	c, _ := startServer(t)
	data := bytes.Repeat([]byte("checksum me over the wire "), 1<<17) // > 3 MiB
	if err := c.WriteFile("sum.bin", data); err != nil {
		t.Fatal(err)
	}
	// Walk the file like a scrubber: per-chunk CRCs must match local ones.
	var off int64
	for off < int64(len(data)) {
		want := min(int64(len(data))-off, int64(MaxChunk))
		crc, n, err := c.ChunkSum("sum.bin", off, int(want))
		if err != nil {
			t.Fatal(err)
		}
		if int64(n) != want {
			t.Fatalf("summed %d bytes at %d, want %d", n, off, want)
		}
		if local := crc32.ChecksumIEEE(data[off : off+want]); crc != local {
			t.Fatalf("chunk at %d: remote crc %08x, local %08x", off, crc, local)
		}
		off += want
	}
	// Short sum at EOF.
	crc, n, err := c.ChunkSum("sum.bin", int64(len(data))-10, MaxChunk)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || crc != crc32.ChecksumIEEE(data[len(data)-10:]) {
		t.Fatalf("tail sum: n=%d crc=%08x", n, crc)
	}
	// Missing files surface ErrNotExist like every other op.
	if _, _, err := c.ChunkSum("nope.bin", 0, 64); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("missing file: %v, want ErrNotExist", err)
	}
}

func TestCopyTo(t *testing.T) {
	c, _ := startServer(t)
	data := bytes.Repeat([]byte("z"), 2<<20+17)
	// A nested path: the share creates the intermediate directories.
	if err := c.WriteFile("inputs/wc/stream.bin", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader("inputs/wc/stream.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sink bytes.Buffer
	n, err := io.Copy(&sink, r)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(sink.Bytes(), data) {
		t.Fatalf("copied %d bytes, want %d", n, len(data))
	}
}

func TestAppendAndReadAt(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Create("log.txt"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("log.txt", []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("log.txt", []byte("world")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	n, err := c.ReadAt("log.txt", buf, 6)
	if err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if n != 5 || string(buf) != "world" {
		t.Fatalf("ReadAt = %q (%d)", buf[:n], n)
	}
}

func TestStatAndList(t *testing.T) {
	c, _ := startServer(t)
	if err := c.WriteFile("a.log", []byte("xx")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("b.log", []byte("yyy")); err != nil {
		t.Fatal(err)
	}
	size, mtime, err := c.Stat("b.log")
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	if mtime.IsZero() {
		t.Fatal("mtime is zero")
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a.log" || names[1] != "b.log" {
		t.Fatalf("List = %v", names)
	}
}

func TestStatMissingMapsToErrNotExist(t *testing.T) {
	c, _ := startServer(t)
	if _, _, err := c.Stat("ghost"); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("err = %v, want smartfam.ErrNotExist", err)
	}
}

func TestRemove(t *testing.T) {
	c, _ := startServer(t)
	if err := c.WriteFile("gone.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("gone.txt"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stat("gone.txt"); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatal("file still present after Remove")
	}
}

func TestPathTraversalRejected(t *testing.T) {
	c, _ := startServer(t)
	for _, bad := range []string{"../escape", "/abs", "a/../../b", "", "a//b"} {
		if err := c.WriteFile(bad, []byte("x")); err == nil {
			t.Errorf("path %q accepted", bad)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c1, root := startServer(t)
	// Second client to the same server.
	srvAddr := c1.conn.RemoteAddr().String()
	c2, err := Dial(srvAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_ = root

	var wg sync.WaitGroup
	for i, c := range []*Client{c1, c2} {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := c.Append("shared.log", []byte{byte('a' + i)}); err != nil {
					t.Errorf("client %d append: %v", i, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	got, err := c1.ReadFile("shared.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("shared log has %d bytes, want 40 (lost appends)", len(got))
	}
}

func TestClientSurvivesConcurrentCalls(t *testing.T) {
	c, _ := startServer(t)
	if err := c.WriteFile("f.txt", bytes.Repeat([]byte("q"), 10_000)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := c.ReadFile("f.txt"); err != nil {
					t.Errorf("concurrent read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerDropMidSession(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteFile("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	srv.Shutdown()
	if _, err := c.ReadFile("x"); err == nil {
		t.Fatal("read succeeded after server shutdown")
	}
}

func TestThrottledTransferPaysNetworkCost(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Shutdown()

	// 2 MB/s link with a 256 KiB burst: fetching a 1 MiB file must pace
	// the ~768 KiB beyond the burst, >= ~300 ms.
	link := netsim.NewLink(netsim.Profile{Name: "slow", BandwidthBps: 2e6, Latency: 0})
	c, err := DialThrottled(t.Context(), ln.Addr().String(), 5*time.Second, link)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := bytes.Repeat([]byte("p"), 1<<20)
	if err := c.WriteFile("paid.bin", data); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := c.ReadFile("paid.bin")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, data) {
		t.Fatal("throttled transfer corrupted data")
	}
	if elapsed < 200*time.Millisecond {
		t.Fatalf("1MiB at 2MB/s fetched in %v — network cost not paid", elapsed)
	}
}

func TestServerRejectsUnknownOp(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.call(&Request{Op: "format-disk"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestServerRejectsOversizedPayloads(t *testing.T) {
	c, _ := startServer(t)
	big := make([]byte, MaxChunk+1)
	if _, err := c.call(&Request{Op: OpAppend, Name: "x", Data: big}); err == nil {
		t.Fatal("oversized append accepted")
	}
	if _, err := c.call(&Request{Op: OpWrite, Name: "x", Data: big}); err == nil {
		t.Fatal("oversized write accepted")
	}
	// The public API chunks transparently.
	if err := c.Append("x", big); err != nil {
		t.Fatalf("chunked Append failed: %v", err)
	}
	size, _, err := c.Stat("x")
	if err != nil || size != int64(len(big)) {
		t.Fatalf("after chunked append: size=%d err=%v", size, err)
	}
}

func TestServerMetricsCountTraffic(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Shutdown()
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte("m"), 1000)
	if err := c.WriteFile("m.bin", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("m.bin"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Counter("nfs.bytes.written").Value(); got != 1000 {
		t.Fatalf("bytes.written = %d, want 1000", got)
	}
	if got := srv.Metrics().Counter("nfs.bytes.read").Value(); got != 1000 {
		t.Fatalf("bytes.read = %d, want 1000", got)
	}
	if srv.Metrics().Counter("nfs.ops."+OpWrite).Value() != 1 {
		t.Fatal("write op not counted")
	}
}

func TestOpenReaderStreamsAndValidates(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.OpenReader("missing"); err == nil {
		t.Fatal("OpenReader on missing file succeeded")
	}
	data := bytes.Repeat([]byte("s"), 2<<20+5)
	if err := c.WriteFile("s.bin", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader("s.bin")
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		sink.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("streamed content corrupted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(buf); err == nil {
		t.Fatal("read from closed reader succeeded")
	}
}

func TestSmartFAMOverNFS(t *testing.T) {
	// The full Fig. 5 wiring: SD node runs an NFS server + smartFAM daemon
	// over its local share; the host invokes a module purely through the
	// NFS client.
	c, root := startServer(t)

	sdFS := smartfam.DirFS(root) // daemon is local to the SD node
	reg := smartfam.NewRegistry(sdFS)
	rev := func(p []byte) []byte {
		out := make([]byte, len(p))
		for i, b := range p {
			out[len(p)-1-i] = b
		}
		return out
	}
	mod := smartfam.ModuleFunc{
		ModuleName: "rev",
		Fn:         func(_ context.Context, p []byte) ([]byte, error) { return rev(p), nil },
	}
	if err := reg.Register(mod); err != nil {
		t.Fatal(err)
	}
	d := smartfam.NewDaemon(sdFS, reg, smartfam.WithPollInterval(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx) //nolint:errcheck

	host := smartfam.NewClient(c, time.Millisecond) // host side: FS == NFS client
	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	// Concurrent callers share the one connection's pipeline window.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := []byte(fmt.Sprintf("abcdef-%d", i))
			got, err := host.Invoke(ictx, "rev", in)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, rev(in)) {
				t.Errorf("call %d: result = %q, want %q", i, got, rev(in))
			}
		}()
	}
	wg.Wait()
}
