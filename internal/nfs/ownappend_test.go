package nfs

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// appendCutter is a connection that dies right after it sends its first
// append to log: the server may run the append, but its response never
// comes back.
type appendCutter struct {
	net.Conn
	log string
	cut atomic.Bool
}

func (a *appendCutter) Write(p []byte) (int, error) {
	n, err := a.Conn.Write(p)
	// The encoder writes one whole frame per Write: length u32 | body.
	var req Request
	if err == nil && len(p) > 4 && decodeRequest(p[4:], &req) == nil &&
		req.Op == OpAppend && req.Name == a.log && a.cut.CompareAndSwap(false, true) {
		a.Conn.Close()
	}
	return n, err
}

// logReads is a host mount that counts its ReadAt calls on one file.
type logReads struct {
	*Client
	log   string
	reads atomic.Int64
}

func (l *logReads) ReadAt(name string, p []byte, off int64) (int, error) {
	if name == l.log {
		l.reads.Add(1)
	}
	return l.Client.ReadAt(name, p, off)
}

// TestWatchOwnAppendStaysLocal pins the own-append path: the appending
// connection's streams get the exact bytes at the offset the response
// reports while no notify frame for them crosses its wire, and every other
// connection still hears them inline. A response that cannot say where the
// bytes landed leaves the server's bare notify as the only event, and a
// connection lost mid-append leaves the response router to degrade and
// scan.
func TestWatchOwnAppendStaysLocal(t *testing.T) {
	t.Run("own connection", func(t *testing.T) {
		c, _ := startServer(t)
		other := dialAlso(t, c)
		var streams []smartfam.WatchStream
		for _, cl := range []*Client{c, other} {
			st, err := cl.Watch("fam.log")
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			streams = append(streams, st)
		}
		first := []byte("from the other connection\n")
		if err := other.Append("fam.log", first); err != nil {
			t.Fatal(err)
		}
		for _, st := range streams {
			if ev, ok := waitEvent(t, st); !ok || ev.Off != 0 || !bytes.Equal(ev.Data, first) {
				t.Fatalf("first append: got %+v (open %v)", ev, ok)
			}
		}
		frames := watchEventsSettled(t, c)

		own := []byte("the appender's own bytes\n")
		if err := c.Append("fam.log", own); err != nil {
			t.Fatal(err)
		}
		for i, st := range streams {
			ev, ok := waitEvent(t, st)
			if !ok || ev.Name != "fam.log" || ev.Off != int64(len(first)) || !bytes.Equal(ev.Data, own) || ev.Gen == 0 {
				t.Fatalf("stream %d: own append arrived as %+v (open %v), want %d bytes at %d", i, ev, ok, len(own), len(first))
			}
		}
		// The marker's frame queues behind any frame the server raised on
		// c's connection for c's own append.
		mark := []byte("marker\n")
		if err := other.Append("fam.log", mark); err != nil {
			t.Fatal(err)
		}
		if ev, _ := waitEvent(t, streams[0]); !bytes.Equal(ev.Data, mark) {
			t.Fatalf("after the own append, c heard %+v, want the marker", ev)
		}
		if got := watchEventsSettled(t, c) - frames; got != 1 {
			t.Fatalf("%d notify frames reached the appending connection, want 1 (the marker)", got)
		}
	})

	t.Run("no offset in the response", func(t *testing.T) {
		srvEnd, cliEnd := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer srvEnd.Close()
			sc := newBinServerCodec(bufio.NewReader(srvEnd), srvEnd)
			var req Request
			for sc.readRequest(&req) == nil {
				if sc.writeResponse(&Response{Tag: req.Tag}) != nil {
					return
				}
				// Where the bytes landed is unknown: the reply is not Landed
				// and every watcher, the appender included, hears a bare notify.
				if req.Op == OpAppend && sc.writeResponse(&Response{Tag: NotifyTag, Names: []string{req.Name}, Gen: 1}) != nil {
					return
				}
			}
		}()
		c := NewClient(cliEnd)
		t.Cleanup(func() {
			c.Close()
			<-served
		})
		st, err := c.Watch("fam.log")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Append("fam.log", []byte("bytes\n")); err != nil {
			t.Fatal(err)
		}
		// A local delivery would already be queued: Append makes it before
		// returning.
		if ev, ok := waitEvent(t, st); !ok || ev.Name != "fam.log" || len(ev.Data) != 0 || ev.Off != 0 {
			t.Fatalf("got %+v (open %v), want one bare notify", ev, ok)
		}
		select {
		case ev := <-st.Events():
			t.Fatalf("a second event %+v after the bare notify", ev)
		default:
		}
	})

	t.Run("disconnect mid-append", func(t *testing.T) {
		addr, _ := startFamTestbed(t)
		raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		log := smartfam.LogName("echo")
		cutter := &appendCutter{Conn: raw, log: log}
		hconn := NewClient(cutter)
		hconn.SetRedial(func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) })
		t.Cleanup(func() { hconn.Close() })
		share := &logReads{Client: hconn, log: log}
		hostMetrics := metrics.NewRegistry()
		hc := smartfam.NewClient(share, time.Millisecond)
		hc.SetMetrics(hostMetrics)
		famInvokeAll(t, hc, 1)
		if !cutter.cut.Load() {
			t.Fatal("no append to the log crossed the first connection")
		}
		if v := hostMetrics.Counter(metrics.FamDegraded).Value(); v == 0 {
			t.Fatal("the router did not degrade when its connection died mid-append")
		}
		if share.reads.Load() == 0 {
			t.Fatal("the degraded router answered without scanning the log")
		}
	})
}

// TestWatchQueuesDropOldest pins both notify queues' overflow policy: a
// full queue evicts its oldest event, so the newest — whose offset exposes
// every gap before it — is always delivered, and each eviction counts in
// nfs.watch.dropped.
func TestWatchQueuesDropOldest(t *testing.T) {
	const extra = 5
	t.Run("server queue", func(t *testing.T) {
		s := NewServer(t.TempDir())
		w := &connWatcher{prefixes: []string{"q.log"}, queue: make(chan notifyEvt, watchQueueDepth), done: make(chan struct{})}
		s.watchers[w] = struct{}{}
		total := watchQueueDepth + extra
		for i := 0; i < total; i++ {
			s.notify("q.log", int64(i), []byte{byte(i)}, nil)
		}
		if n := s.metrics.Counter(metrics.NFSWatchDropped).Value(); n != extra {
			t.Fatalf("nfs.watch.dropped = %d, want %d", n, extra)
		}
		if len(w.queue) != watchQueueDepth {
			t.Fatalf("queue holds %d notifies, want %d", len(w.queue), watchQueueDepth)
		}
		for want := int64(extra); want < int64(total); want++ {
			if ev := <-w.queue; ev.off != want {
				t.Fatalf("queued notify at %d, want %d: the oldest must go first", ev.off, want)
			}
		}
	})

	t.Run("client stream", func(t *testing.T) {
		srv := NewServer(t.TempDir())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck
		t.Cleanup(func() {
			ln.Close()
			srv.Shutdown()
		})
		var clients [2]*Client
		for i := range clients {
			if clients[i], err = Dial(ln.Addr().String(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			defer clients[i].Close()
		}
		c, other := clients[0], clients[1]
		st, err := c.Watch("q.log")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		total := watchStreamDepth + extra
		var last []byte
		for i := 0; i < total; i++ {
			last = []byte(fmt.Sprintf("append %d\n", i))
			if err := other.Append("q.log", last); err != nil {
				t.Fatal(err)
			}
		}
		// Nobody reads the stream: every frame the server sent piles up in it.
		frames := c.met.watchEvents
		srvDropped := srv.Metrics().Counter(metrics.NFSWatchDropped)
		for deadline := time.Now().Add(10 * time.Second); frames.Value()+srvDropped.Value() < int64(total); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d notifies reached the client", frames.Value(), total)
			}
		}
		var got []smartfam.WatchEvent
		for len(st.Events()) > 0 {
			got = append(got, <-st.Events())
		}
		if want := min(frames.Value(), watchStreamDepth); int64(len(got)) != want {
			t.Fatalf("stream holds %d events, want %d", len(got), want)
		}
		if !bytes.Equal(got[len(got)-1].Data, last) {
			t.Fatalf("last event carries %q, want the final append %q", got[len(got)-1].Data, last)
		}
		if d := c.met.watchDropped.Value(); d != frames.Value()-int64(len(got)) {
			t.Fatalf("client nfs.watch.dropped = %d, want %d", d, frames.Value()-int64(len(got)))
		}
	})
}
