package nfs

//mcsdlint:fsboundary -- the server side of the share: it implements the exported directory, it cannot route through an FS client of itself

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// Server exports a local directory over the wire — the SD node's NFS-server
// role in the testbed ("the McSD node is configured as an NFS server",
// §III-B).
//
// Beyond request/response the server keeps two pieces of change-tracking
// state for the push-mode invocation path: a per-file identity (see
// smartfam.GenStat: changed by every rewrite, left alone by appends,
// reported in OpStat and OpAppend replies and notify frames, so a reader
// finds a rewrite from the Stat it makes anyway) and a watch registry
// (OpWatch registers a connection's prefix set; every mutation streams a
// notify frame on the NotifyTag lane to each matching watcher, and an
// append of at most inlineNotifyMax bytes ships those bytes and their
// offset in the frame — to every watcher but the appending connection,
// whose response says where its bytes landed). Only mutations that pass
// through this server are seen — out-of-band writes to the exported
// directory fall back on the readers' own sweeps (the daemon's tick sweep,
// the host router's size probe).
type Server struct {
	root    string
	metrics *metrics.Registry

	mu       sync.Mutex
	applock  sync.Mutex // serializes appends/commits for cross-client atomicity
	conns    map[net.Conn]struct{}
	epoch    uint64            // low 16 bits of every identity, drawn per server, never 0
	rewrites map[string]uint64 // the bits above: rewrites per file (cleaned name), never reset
	watchers map[*connWatcher]struct{}
	closed   bool
}

// watchQueueDepth bounds each watcher's pending-notify queue. A full queue
// drops its oldest notify (counted in nfs.watch.dropped) rather than
// blocking the mutating request, so the newest — whose offset exposes the
// gap — always goes out; the consumer reads the dropped change itself.
const watchQueueDepth = 256

// inlineNotifyMax caps the appended bytes a notify frame carries: one
// group-commit batch. Larger appends (and every other mutation) notify
// bare, and the watcher reads the change itself.
const inlineNotifyMax = smartfam.DefaultBatchBytes

// notifyEvt is one queued change notification. data, when non-nil, is the
// append's bytes at off — one copy shared by every watcher it is queued to.
type notifyEvt struct {
	name string
	id   uint64
	off  int64
	data []byte
}

// connWatcher is one connection's watch registration: a prefix-set filter
// plus a bounded queue drained by a dedicated sender goroutine (notify
// frames must interleave with the serve loop's response frames under the
// connection's write lock, never block a mutating request).
type connWatcher struct {
	prefixes []string // guarded by Server.mu
	queue    chan notifyEvt
	done     chan struct{}
}

// matches reports whether name falls under any registered prefix. Caller
// holds Server.mu.
func (w *connWatcher) matches(name string) bool {
	for _, p := range w.prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// sendDropOldest queues v on ch without blocking, evicting the oldest
// queued value while ch is full — both notify queues' overflow policy —
// and returns how many it evicted.
func sendDropOldest[T any](ch chan T, v T) (evicted int) {
	for {
		select {
		case ch <- v:
			return evicted
		default:
		}
		select {
		case <-ch:
			evicted++
		default:
		}
	}
}

// NewServer returns a server exporting root.
func NewServer(root string) *Server {
	return &Server{
		root:    root,
		metrics: metrics.NewRegistry(),
		conns:   make(map[net.Conn]struct{}),
		// A restarted server draws a new epoch, so every identity changes;
		// 16 bits keep an identity a 3-byte varint on the wire.
		epoch:    uint64(rand.IntN(1<<16-1) + 1),
		rewrites: make(map[string]uint64),
		watchers: make(map[*connWatcher]struct{}),
	}
}

// Metrics returns the server's metrics registry (bytes served, ops).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Serve accepts connections on ln until ln is closed or Shutdown is called.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("nfs: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		//mcsdlint:allow goroleak -- serveConn exits when its conn closes; the conn was just tracked in s.conns, and Shutdown closes every tracked conn
		go s.serveConn(conn)
	}
}

// Shutdown closes every live connection. The caller closes the listener.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	var watcher *connWatcher
	defer func() {
		if watcher != nil {
			s.dropWatcher(watcher)
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := newBinServerCodec(bufio.NewReaderSize(conn, 64<<10), conn)
	// Responses and notify frames share the connection; once a watch is
	// registered its sender goroutine interleaves frames with this loop, so
	// every write goes through writeMu.
	var writeMu sync.Mutex
	for {
		var req Request
		if err := c.readRequest(&req); err != nil {
			return // io.EOF on clean close; a malformed frame also ends the conn
		}
		var resp *Response
		if req.Op == OpWatch {
			resp, watcher = s.handleWatch(&req, watcher, c, &writeMu)
		} else {
			resp = s.handle(&req, watcher)
		}
		resp.Tag = req.Tag // correlate on the client's pipelined demux
		writeMu.Lock()
		err := c.writeResponse(resp)
		writeMu.Unlock()
		resp.free() // the encoder copied Data into its frame
		if err != nil {
			return
		}
	}
}

// handleWatch registers (or re-aims) the connection's prefix set and
// starts its notify sender.
func (s *Server) handleWatch(req *Request, cur *connWatcher, c *binServerCodec, writeMu *sync.Mutex) (*Response, *connWatcher) {
	s.metrics.Counter(metrics.NFSOpPrefix + OpWatch).Inc()
	prefixes := decodePrefixes(req.Data)
	if cur != nil {
		// Re-registration on the same connection just re-aims the set.
		s.mu.Lock()
		cur.prefixes = prefixes
		s.mu.Unlock()
		return &Response{}, cur
	}
	w := &connWatcher{
		prefixes: prefixes,
		queue:    make(chan notifyEvt, watchQueueDepth),
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return &Response{Err: "nfs: server shutting down"}, cur
	}
	s.watchers[w] = struct{}{}
	s.mu.Unlock()
	s.metrics.Gauge(metrics.NFSWatchStreams).Add(1)
	//mcsdlint:allow goroleak -- the sender exits when serveConn's deferred dropWatcher closes w.done (or its conn write fails); the watcher was just registered under s.mu
	go s.runWatcher(w, c, writeMu)
	return &Response{}, w
}

// dropWatcher unregisters a watch and stops its sender.
func (s *Server) dropWatcher(w *connWatcher) {
	s.mu.Lock()
	delete(s.watchers, w)
	s.mu.Unlock()
	close(w.done)
	s.metrics.Gauge(metrics.NFSWatchStreams).Add(-1)
}

// runWatcher drains one watch registration's queue into notify frames on
// the connection. A write failure just stops the sender: the connection is
// dying and serveConn's read side will tear the registration down.
func (s *Server) runWatcher(w *connWatcher, c *binServerCodec, writeMu *sync.Mutex) {
	for {
		select {
		case <-w.done:
			return
		case ev := <-w.queue:
			writeMu.Lock()
			err := c.writeResponse(&Response{Tag: NotifyTag, Names: []string{ev.name}, Gen: ev.id, Size: ev.off, Data: ev.data})
			writeMu.Unlock()
			if err != nil {
				return
			}
			s.metrics.Counter(metrics.NFSWatchNotifies).Inc()
		}
	}
}

// rewrite gives name a new identity. Every mutation but an append calls it
// BEFORE changing the file, and OpStat reads the identity after its stat,
// so a Stat that sees the new file sees its new identity.
func (s *Server) rewrite(name string) {
	clean, err := cleanName(name)
	if err != nil || isStagingTemp(path.Base(clean)) {
		return
	}
	s.mu.Lock()
	s.rewrites[clean]++
	s.mu.Unlock()
}

// touch queues every matching watcher a bare notify for a successful
// mutation of name.
func (s *Server) touch(name string) { s.notify(name, 0, nil, nil) }

// notify is touch for an append that just wrote data at off, made by the
// connection whose watcher is self (nil when it watches nothing): self is
// skipped, and when data fits inlineNotifyMax the other notifies carry it
// (copied once, and only if a watcher matches — data aliases the request
// frame). Every notify carries the file's identity, which it returns; ok
// is false for staging temps, which stay invisible here just as they do
// in List.
func (s *Server) notify(name string, off int64, data []byte, self *connWatcher) (id uint64, ok bool) {
	clean, err := cleanName(name)
	if err != nil || isStagingTemp(path.Base(clean)) {
		return 0, false
	}
	s.mu.Lock()
	id = s.rewrites[clean]<<16 | s.epoch
	var targets []*connWatcher
	for w := range s.watchers {
		if w != self && w.matches(clean) {
			targets = append(targets, w)
		}
	}
	s.mu.Unlock()
	ev := notifyEvt{name: clean, id: id}
	if len(targets) > 0 && len(data) > 0 && len(data) <= inlineNotifyMax {
		ev.off, ev.data = off, bytes.Clone(data)
	}
	for _, w := range targets {
		if n := sendDropOldest(w.queue, ev); n > 0 {
			s.metrics.Counter(metrics.NFSWatchDropped).Add(int64(n))
		}
	}
	return id, true
}

func (s *Server) path(name string) (string, error) {
	clean, err := cleanName(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.root, filepath.FromSlash(clean)), nil
}

func fail(err error) *Response {
	return &Response{Err: err.Error(), NotExist: errors.Is(err, os.ErrNotExist)}
}

// handle serves one request on the connection whose watch registration is
// self (nil when it has none).
func (s *Server) handle(req *Request, self *connWatcher) *Response {
	s.metrics.Counter(metrics.NFSOpPrefix + req.Op).Inc()
	switch req.Op {
	case OpPing:
		return &Response{}
	case OpCreate:
		return s.handleCreate(req)
	case OpAppend:
		return s.handleAppend(req, self)
	case OpReadAt:
		return s.handleReadAt(req)
	case OpStat:
		return s.handleStat(req)
	case OpList:
		return s.handleList(req)
	case OpRemove:
		return s.handleRemove(req)
	case OpRename:
		return s.handleRename(req)
	case OpWrite:
		return s.handleWrite(req)
	case OpCommit:
		return s.handleCommit(req)
	case OpSum:
		return s.handleSum(req)
	default:
		return &Response{Err: fmt.Sprintf("nfs: unknown op %q", req.Op)}
	}
}

func (s *Server) handleCreate(req *Request) *Response {
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fail(err)
	}
	s.rewrite(req.Name)
	f, err := os.Create(p)
	if err != nil {
		return fail(err)
	}
	f.Close()
	s.touch(req.Name)
	return &Response{}
}

func (s *Server) handleAppend(req *Request, self *connWatcher) *Response {
	if len(req.Data) > MaxChunk {
		return &Response{Err: "nfs: append exceeds MaxChunk"}
	}
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	// Cross-connection append atomicity for smartFAM logs.
	s.applock.Lock()
	defer s.applock.Unlock()
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	if _, err := f.Write(req.Data); err != nil {
		return fail(err)
	}
	s.metrics.Counter(metrics.NFSBytesWritten).Add(int64(len(req.Data)))
	// The descriptor's position after an O_APPEND write is the end of
	// exactly these bytes, even if an out-of-band writer grew the file
	// since the open.
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		s.touch(req.Name) // no trustworthy offset: notify bare, the appender included
		return &Response{}
	}
	// The appender holds these bytes already: the response tells it where
	// they landed and it delivers them to its own streams, so no notify
	// carries them back across the wire.
	off := end - int64(len(req.Data))
	id, ok := s.notify(req.Name, off, req.Data, self)
	if !ok {
		return &Response{}
	}
	return &Response{Size: off, Gen: id, Landed: true}
}

// handleReadAt reads up to N bytes at Off into a pooled frame that the
// serve loop frees once the reply is written. The reply carries the file's
// size as of the read, and EOF when the read reached it — not only when it
// came up short — so a streaming reader stops issuing at the end without
// asking past it.
func (s *Server) handleReadAt(req *Request) *Response {
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	n := req.N
	if n <= 0 || n > MaxChunk {
		n = MaxChunk
	}
	f, err := os.Open(p)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	fb := getFrame(n)
	read, err := f.ReadAt(fb.b, req.Off)
	if err != nil && !errors.Is(err, io.EOF) {
		putFrame(fb)
		return fail(err)
	}
	// An append landing between the stat and the read can carry the read
	// past the stat's size; the reply's size never trails its own bytes.
	end := req.Off + int64(read)
	size := max(fi.Size(), end)
	s.metrics.Counter(metrics.NFSBytesRead).Add(int64(read))
	return &Response{Data: fb.b[:read], Size: size, EOF: errors.Is(err, io.EOF) || end >= size, frame: fb}
}

// handleSum checksums up to N bytes of the file at Off server-side — the
// remote half of scrub verification: the host compares per-chunk CRC32s
// against a locally verified copy without dragging the replica's bytes
// over the wire. The response carries the CRC in Size and the number of
// bytes actually summed in MTimeNs (EOF set when the range hit the end),
// so the client walks a file chunk by chunk like ReadAt.
func (s *Server) handleSum(req *Request) *Response {
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	n := req.N
	if n <= 0 || n > MaxChunk {
		n = MaxChunk
	}
	f, err := os.Open(p)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	fb := getFrame(n)
	defer putFrame(fb)
	read, err := f.ReadAt(fb.b, req.Off)
	if err != nil && !errors.Is(err, io.EOF) {
		return fail(err)
	}
	return &Response{
		Size:    int64(crc32.ChecksumIEEE(fb.b[:read])),
		MTimeNs: int64(read),
		EOF:     errors.Is(err, io.EOF),
	}
}

func (s *Server) handleStat(req *Request) *Response {
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	fi, err := os.Stat(p)
	if err != nil {
		return fail(err)
	}
	// The identity — the epoch and the rewrite count, read after the stat
	// (see rewrite) — tells a rewritten log from the old one, even one
	// regrown to its old size and mtime.
	clean, _ := cleanName(req.Name) // s.path checked it
	s.mu.Lock()
	id := s.rewrites[clean]<<16 | s.epoch
	s.mu.Unlock()
	return &Response{Size: fi.Size(), MTimeNs: fi.ModTime().UnixNano(), Gen: id}
}

func (s *Server) handleList(req *Request) *Response {
	dir := s.root
	if req.Name != "" {
		p, err := s.path(req.Name)
		if err != nil {
			return fail(err)
		}
		dir = p
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fail(err)
	}
	var names []string
	for _, e := range entries {
		// Staging temps (client-side multi-chunk append/write commits in
		// progress, or orphans from a crashed transfer) stay invisible.
		if e.IsDir() || isStagingTemp(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return &Response{Names: names}
}

func (s *Server) handleRemove(req *Request) *Response {
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	s.rewrite(req.Name)
	if err := os.Remove(p); err != nil {
		return fail(err)
	}
	s.touch(req.Name)
	return &Response{}
}

func (s *Server) handleRename(req *Request) *Response {
	from, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	to, err := s.path(req.To)
	if err != nil {
		return fail(err)
	}
	s.rewrite(req.Name)
	s.rewrite(req.To)
	if err := os.Rename(from, to); err != nil {
		return fail(err)
	}
	s.touch(req.Name)
	s.touch(req.To)
	return &Response{}
}

// isStagingTemp reports whether name is a client staging file for a
// multi-chunk append/write commit.
func isStagingTemp(name string) bool {
	return strings.HasSuffix(name, ".tmp") && strings.Contains(name, ".append-")
}

// handleCommit splices a staged temp file onto its target in one atomic
// step under the append lock: CommitReplace renames it over the target,
// CommitAppend copies it onto the target's tail server-side (no data
// re-crosses the wire) and removes it. Either way the target goes from
// old-state to fully-committed with no observable torn intermediate. A
// replace with a positive Off happens only while the target is Off bytes
// long; the append lock keeps appends out between the check and the rename.
func (s *Server) handleCommit(req *Request) *Response {
	src, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	dst, err := s.path(req.To)
	if err != nil {
		return fail(err)
	}
	s.applock.Lock()
	defer s.applock.Unlock()
	if req.N == CommitReplace {
		if req.Off > 0 {
			fi, err := os.Stat(dst)
			if err != nil {
				return fail(err)
			}
			if fi.Size() != req.Off {
				return &Response{Err: errReplaceChanged}
			}
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return fail(err)
		}
		s.rewrite(req.To)
		if err := os.Rename(src, dst); err != nil {
			return fail(err)
		}
		s.touch(req.To)
		return &Response{}
	}
	in, err := os.Open(src)
	if err != nil {
		return fail(err)
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fail(err)
	}
	if err := out.Close(); err != nil {
		return fail(err)
	}
	os.Remove(src) //nolint:errcheck // staging file: best-effort cleanup
	s.touch(req.To)
	return &Response{}
}

func (s *Server) handleWrite(req *Request) *Response {
	if len(req.Data) > MaxChunk {
		return &Response{Err: "nfs: write exceeds MaxChunk; use Create+Append"}
	}
	p, err := s.path(req.Name)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fail(err)
	}
	s.rewrite(req.Name)
	if err := os.WriteFile(p, req.Data, 0o644); err != nil {
		return fail(err)
	}
	s.metrics.Counter(metrics.NFSBytesWritten).Add(int64(len(req.Data)))
	s.touch(req.Name)
	return &Response{}
}
