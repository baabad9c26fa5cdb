package nfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/smartfam"
)

// ErrDisconnected marks an RPC that failed because the connection to the
// server dropped (or could not yet be re-established). It is retryable:
// the in-flight call is lost, but the next call transparently redials when
// the client knows how to (Dial/DialThrottled install a redial function;
// NewClient over a raw conn does not).
var ErrDisconnected = errors.New("nfs: connection lost")

// Redial backoff defaults: a dead server is retried at most once per
// window, with the window doubling up to the cap.
const (
	defaultRedialInitial = 50 * time.Millisecond
	defaultRedialMax     = 2 * time.Second
)

// DefaultWindow is the default pipeline depth: how many tagged requests a
// client keeps in flight on its one connection before a send blocks. Sized
// so a MaxChunk-sized window comfortably covers a 1 GbE
// bandwidth-delay product with millisecond RTTs.
const DefaultWindow = 32

// readAheadDepth is how many MaxChunk prefetches an OpenReader keeps in
// flight ahead of the consumer.
const readAheadDepth = 8

// maxReplays bounds how many times one idempotent request is replayed
// across reconnects before its failure is surfaced.
const maxReplays = 2

// Client is the host-node side of the share: it implements smartfam.FS so
// the smartFAM client runs unchanged over the network, plus whole-file
// helpers for staging workload data onto (and results off) the SD node.
//
// A Client multiplexes all operations over one connection, mirroring one
// NFS mount, but pipelines them: every request carries a tag, up to
// DefaultWindow requests are on the wire at once, and a demux goroutine
// matches responses back to callers by tag. Chunked helpers (ReadAt,
// Append, OpenReader) issue their chunk RPCs through the window so
// consecutive chunks overlap round trips instead of paying one RTT each.
//
// It is safe for concurrent use. A dropped connection fails every
// in-flight request with ErrDisconnected exactly once; idempotent requests
// (reads, stats, lists, whole-file writes) are transparently replayed
// after a successful redial, mutating ones surface the error so the caller
// can decide (smartFAM retries are safe by request-ID dedupe). Redials are
// rate-limited by an exponential backoff window.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	codec   *binClientCodec
	closed  bool
	gen     uint64 // connection generation; bumped on every failure
	nextTag uint64
	pending map[uint64]chan outcome
	window  chan struct{} // in-flight slots; capacity = DefaultWindow

	sendMu sync.Mutex // serializes request frames onto the connection

	armMu      sync.Mutex // serializes OpWatch (re-)registrations (watch.go)
	watchMu    sync.Mutex // guards the local watch-stream set
	watches    map[*clientWatch]struct{}
	watchArmed bool   // a server-side watch registration is live
	watchGen   uint64 // connection generation it was armed on
	watchSet   []byte // encoded prefix set it carries

	redial      func() (net.Conn, error)
	backoffInit time.Duration
	backoffMax  time.Duration
	backoffCur  time.Duration // 0 = connected / first retry is free
	nextDial    time.Time
	reconnects  int64

	reg *metrics.Registry
	met clientCounters
}

// clientCounters caches the client's hot-path metrics so pipelined sends
// do not take the registry lock per request.
type clientCounters struct {
	inflight     *metrics.Gauge
	stalls       *metrics.Counter
	bytesSent    *metrics.Counter
	bytesRecv    *metrics.Counter
	replays      *metrics.Counter
	watchEvents  *metrics.Counter
	watchDropped *metrics.Counter
}

// outcome is the terminal state of one tagged request.
type outcome struct {
	resp *Response
	err  error
	sent bool // the request reached the wire before the failure
}

// Dial connects to an NFS server at addr. The returned client redials the
// same address if the connection later drops.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("nfs: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.redial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	return c, nil
}

// DialThrottled connects through a modelled link, so all share traffic pays
// the interconnect's cost (the testbed's 1 GbE switch). Redials go through
// the same link. ctx bounds the link's pacing waits for the connection's
// lifetime (and any redialed successor's).
func DialThrottled(ctx context.Context, addr string, timeout time.Duration, link *netsim.Link) (*Client, error) {
	conn, err := link.DialThrottled(ctx, "tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("nfs: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.redial = func() (net.Conn, error) { return link.DialThrottled(ctx, "tcp", addr, timeout) }
	return c, nil
}

// NewClient wraps an established connection (possibly already throttled).
// Without a redial function (Dial and DialThrottled install one) a dropped
// connection is permanent: every later call fails with ErrDisconnected.
func NewClient(conn net.Conn) *Client {
	r := metrics.NewRegistry()
	return &Client{
		conn:        conn,
		pending:     make(map[uint64]chan outcome),
		window:      make(chan struct{}, DefaultWindow),
		backoffInit: defaultRedialInitial,
		backoffMax:  defaultRedialMax,
		reg:         r,
		met: clientCounters{
			inflight:     r.Gauge(metrics.NFSClientInflight),
			stalls:       r.Counter(metrics.NFSClientPipelineStalls),
			bytesSent:    r.Counter(metrics.NFSClientBytesSent),
			bytesRecv:    r.Counter(metrics.NFSClientBytesRecv),
			replays:      r.Counter(metrics.NFSClientReplays),
			watchEvents:  r.Counter(metrics.NFSWatchEvents),
			watchDropped: r.Counter(metrics.NFSWatchDropped),
		},
	}
}

// Metrics returns the registry the client reports into.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// Close tears down the connection, fails every in-flight request and
// disables redialing.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	failed := c.failLocked()
	c.mu.Unlock()
	c.closeWatches()
	for _, ch := range failed {
		//mcsdlint:allow chanbound -- pending-call channels are made with cap 1 in send() and failLocked detached them, so this is the single delivery; it cannot block
		ch <- outcome{err: fmt.Errorf("%w: client closed", ErrDisconnected), sent: false}
		c.releaseSlot()
	}
	return err
}

// failLocked discards the live connection state, bumps the generation and
// detaches the pending set. Caller holds c.mu and must deliver a failure
// to every returned channel (and release its window slot) after unlocking.
func (c *Client) failLocked() map[uint64]chan outcome {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.codec = nil
	c.gen++
	failed := c.pending
	c.pending = make(map[uint64]chan outcome)
	return failed
}

// failConn tears down generation gen after an I/O failure, delivering
// ErrDisconnected to every request that was in flight on it — exactly
// once per tag, because the pending set detaches atomically and stale
// generations bail out on the gen check.
func (c *Client) failConn(gen uint64, cause error) {
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	failed := c.failLocked()
	c.mu.Unlock()
	// Watch streams die with their connection: the channel close tells
	// consumers to fall back to polling (and re-Watch after a redial).
	c.closeWatches()
	err := fmt.Errorf("%w: %v", ErrDisconnected, cause)
	for _, ch := range failed {
		//mcsdlint:allow chanbound -- pending-call channels are made with cap 1 in send() and failLocked detached them, so this is the single delivery; it cannot block
		ch <- outcome{err: err, sent: true}
		c.releaseSlot()
	}
}

// reconnectLocked re-establishes the connection, honouring the backoff
// window so a dead server is not hammered. Caller holds c.mu.
func (c *Client) reconnectLocked() error {
	if c.closed {
		return fmt.Errorf("%w: client closed", ErrDisconnected)
	}
	if c.redial == nil {
		return fmt.Errorf("%w: no redial configured", ErrDisconnected)
	}
	if time.Now().Before(c.nextDial) {
		return fmt.Errorf("%w: redial backoff active", ErrDisconnected)
	}
	conn, err := c.redial()
	if err != nil {
		if c.backoffCur <= 0 {
			c.backoffCur = c.backoffInit
		}
		c.nextDial = time.Now().Add(c.backoffCur)
		c.backoffCur *= 2
		if c.backoffCur > c.backoffMax {
			c.backoffCur = c.backoffMax
		}
		return fmt.Errorf("%w: redial: %v", ErrDisconnected, err)
	}
	c.conn = conn
	c.backoffCur = 0
	c.nextDial = time.Time{}
	c.reconnects++
	return nil
}

// startLocked builds the codec for the current connection (wrapping it for
// wire-byte accounting) and starts its demux goroutine. Caller holds c.mu.
func (c *Client) startLocked() {
	cc := &countingConn{Conn: c.conn, sent: c.met.bytesSent, recv: c.met.bytesRecv}
	c.codec = newBinClientCodec(cc, cc)
	//mcsdlint:allow goroleak -- demux exits when its generation's connection dies: readResponse returns an error once the conn fails or Close tears it down, and failConn retires the generation
	go c.demux(c.codec, c.gen)
}

// demux is the per-connection response reader: it matches each response to
// its tag and hands it to the waiting caller. On a read failure it fails
// the whole generation.
func (c *Client) demux(codec *binClientCodec, gen uint64) {
	for {
		resp := new(Response)
		if err := codec.readResponse(resp); err != nil {
			c.failConn(gen, err)
			return
		}
		if resp.Tag == NotifyTag {
			// Unsolicited server-push change notification: the reserved tag
			// lane. Never a pending call (tags start at 1).
			c.deliverNotify(resp)
			continue
		}
		c.mu.Lock()
		if gen != c.gen {
			c.mu.Unlock()
			resp.free()
			return
		}
		ch, ok := c.pending[resp.Tag]
		if ok {
			delete(c.pending, resp.Tag)
		}
		c.mu.Unlock()
		if !ok {
			// Tag already failed over (or never ours): drop the frame.
			resp.free()
			continue
		}
		//mcsdlint:allow chanbound -- the tag was just removed from pending under c.mu, so this cap-1 channel (made in send()) gets exactly this one delivery; it cannot block
		ch <- outcome{resp: resp, sent: true}
		c.releaseSlot()
	}
}

// acquireSlot claims one window slot, blocking (and counting a pipeline
// stall) when the window is full.
func (c *Client) acquireSlot() {
	select {
	case c.window <- struct{}{}:
	default:
		c.met.stalls.Inc()
		//mcsdlint:allow chanbound -- blocking here IS the pipeline-window backpressure (§IV-B): every delivered outcome releases a slot, and failLocked fails all pending calls on disconnect, so the wait is bounded by in-flight completions
		c.window <- struct{}{}
	}
	c.met.inflight.Add(1)
}

// releaseSlot frees a window slot; called by whichever path delivers the
// request's outcome, exactly once per acquireSlot.
func (c *Client) releaseSlot() {
	<-c.window
	c.met.inflight.Add(-1)
}

// transmit assigns req a tag, registers its outcome channel and writes the
// frame. A returned error means the request never reached the wire (the
// channel is untouched); a post-registration write failure is delivered
// through the channel by failConn instead.
func (c *Client) transmit(req *Request, ch chan outcome) error {
	c.mu.Lock()
	if c.conn == nil {
		if err := c.reconnectLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	if c.codec == nil {
		c.startLocked()
	}
	c.nextTag++
	req.Tag = c.nextTag
	gen := c.gen
	codec := c.codec
	c.pending[req.Tag] = ch
	c.mu.Unlock()

	c.sendMu.Lock()
	err := codec.writeRequest(req)
	c.sendMu.Unlock()
	if err != nil {
		c.failConn(gen, err)
	}
	return nil
}

// call is one in-flight tagged request: a future whose wait() yields the
// response (replaying idempotent requests across a reconnect).
type call struct {
	c    *Client
	req  *Request
	idem bool
	ch   chan outcome
}

// send issues req into the pipeline window and returns its future.
func (c *Client) send(req *Request, idem bool) *call {
	f := &call{c: c, req: req, idem: idem, ch: make(chan outcome, 1)}
	c.acquireSlot()
	if err := c.transmit(req, f.ch); err != nil {
		c.releaseSlot()
		f.ch <- outcome{err: err}
	}
	return f
}

// ready reports whether wait() would return without blocking.
func (f *call) ready() bool { return len(f.ch) > 0 }

// wait blocks for the request's outcome. Requests that reached the wire
// and were lost to a disconnect are replayed (bounded) when idempotent.
// The returned response must be freed by the caller once its Data has been
// consumed.
func (f *call) wait() (*Response, error) {
	out := <-f.ch
	for attempt := 0; out.err != nil && out.sent && f.idem &&
		errors.Is(out.err, ErrDisconnected) && attempt < maxReplays; attempt++ {
		f.c.met.replays.Inc()
		out = f.c.retry(f.req)
	}
	if out.err != nil {
		return nil, out.err
	}
	resp := out.resp
	if resp.Err != "" {
		err := respErr(f.req, resp)
		resp.free()
		return nil, err
	}
	return resp, nil
}

// retry re-sends a request once, synchronously (the idempotent replay
// path). It claims its own window slot like any other send.
func (c *Client) retry(req *Request) outcome {
	ch := make(chan outcome, 1)
	c.acquireSlot()
	if err := c.transmit(req, ch); err != nil {
		c.releaseSlot()
		return outcome{err: err}
	}
	return <-ch
}

func respErr(req *Request, resp *Response) error {
	if resp.NotExist {
		return fmt.Errorf("%w: %s: %s", smartfam.ErrNotExist, req.Name, resp.Err)
	}
	if resp.Err == errReplaceChanged {
		return fmt.Errorf("%w: %s", smartfam.ErrLogChanged, req.To)
	}
	return fmt.Errorf("%w: %s", ErrRemote, resp.Err)
}

// do performs one RPC round trip through the pipeline.
func (c *Client) do(req *Request, idem bool) (*Response, error) {
	return c.send(req, idem).wait()
}

// doDiscard is do for operations whose response carries no payload.
func (c *Client) doDiscard(req *Request, idem bool) error {
	resp, err := c.do(req, idem)
	if resp != nil {
		resp.free()
	}
	return err
}

// call performs one non-idempotent RPC round trip. An IO failure mid-call
// returns ErrDisconnected — the request may or may not have executed
// server-side, so only the caller can decide whether a retry is safe
// (smartFAM retries are, by request-ID dedupe).
func (c *Client) call(req *Request) (*Response, error) {
	return c.do(req, false)
}

// Ping round-trips an empty request, verifying the mount.
func (c *Client) Ping() error {
	return c.doDiscard(&Request{Op: OpPing}, true)
}

// Create makes (or truncates) a file on the share.
func (c *Client) Create(name string) error {
	return c.doDiscard(&Request{Op: OpCreate, Name: name}, true)
}

// Append atomically appends data. Payloads up to MaxChunk go out as one
// RPC. Larger ones are staged: the chunks are pipelined into a uniquely
// named temp file beside the target, then a single commit RPC splices the
// staged bytes onto the target under the server's append lock — so a crash
// or disconnect mid-transfer can never leave a torn tail on the target
// (the orphaned staging file is invisible to List and harmless).
//
// The server notifies every other watcher of a single-RPC append; this
// connection's own streams hear of it from here, once the response says
// where the bytes landed, so they never cross the wire twice.
func (c *Client) Append(name string, data []byte) error {
	if len(data) > MaxChunk {
		return c.stageAndCommit(name, data, CommitAppend, 0)
	}
	resp, err := c.do(&Request{Op: OpAppend, Name: name, Data: data}, false)
	if err != nil {
		return err
	}
	if resp.Landed {
		c.deliverOwnAppend(name, resp.Gen, resp.Size, data)
	}
	resp.free()
	return nil
}

// stageAndCommit pipelines data into a staging temp file and commits it
// onto name in one server-side splice (append or replace). A replace with
// expect > 0 happens only while name is expect bytes long.
func (c *Client) stageAndCommit(name string, data []byte, mode int, expect int64) error {
	clean, err := cleanName(name)
	if err != nil {
		return err
	}
	tmp := clean + ".append-" + smartfam.NewID() + ".tmp"
	if err := c.Create(tmp); err != nil {
		return err
	}
	futures := make([]*call, 0, (len(data)+MaxChunk-1)/MaxChunk)
	for off := 0; off < len(data); off += MaxChunk {
		end := min(off+MaxChunk, len(data))
		// In-order pipelined appends: one connection handles requests in
		// send order, so the staged chunks land sequentially.
		futures = append(futures, c.send(&Request{Op: OpAppend, Name: tmp, Data: data[off:end]}, false))
	}
	var firstErr error
	for _, f := range futures {
		resp, err := f.wait()
		if resp != nil {
			resp.free()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = c.doDiscard(&Request{Op: OpCommit, Name: tmp, To: name, N: mode, Off: expect}, false)
		if firstErr == nil {
			return nil
		}
	}
	// Best-effort cleanup; if the commit raced a disconnect the server may
	// have already consumed the staging file, and List filters strays.
	_ = c.doDiscard(&Request{Op: OpRemove, Name: tmp}, false) //nolint:errcheck
	return firstErr
}

// ReadAt implements smartfam.FS. A read of at most MaxChunk is one RPC; a
// larger one streams through a reader bounded to the range, so it costs
// about one RTT plus transfer time instead of one RTT per chunk.
func (c *Client) ReadAt(name string, p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(p) > MaxChunk {
		r, err := c.openReaderAt(name, off, off+int64(len(p)))
		if err != nil {
			return 0, err
		}
		defer r.Close()
		n, err := io.ReadFull(r, p)
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.EOF
		}
		return n, err
	}
	resp, err := c.do(&Request{Op: OpReadAt, Name: name, Off: off, N: len(p)}, true)
	if err != nil {
		return 0, err
	}
	n := copy(p, resp.Data)
	resp.free()
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ChunkSum asks the server for the CRC32 (IEEE) of up to n bytes of name
// at off, computed server-side so scrub-style verification costs one small
// RPC instead of the chunk's bytes. It returns the checksum and how many
// bytes were actually summed (short at EOF). Servers predating the op
// answer with an "unknown op" remote error; callers fall back to reading
// the bytes.
func (c *Client) ChunkSum(name string, off int64, n int) (uint32, int, error) {
	if n <= 0 || n > MaxChunk {
		n = MaxChunk
	}
	resp, err := c.do(&Request{Op: OpSum, Name: name, Off: off, N: n}, true)
	if err != nil {
		return 0, 0, err
	}
	crc, summed := uint32(resp.Size), int(resp.MTimeNs)
	resp.free()
	return crc, summed, nil
}

// Stat implements smartfam.FS.
func (c *Client) Stat(name string) (int64, time.Time, error) {
	size, mtime, _, err := c.StatGen(name)
	return size, mtime, err
}

// List implements smartfam.FS (share root).
func (c *Client) List() ([]string, error) {
	resp, err := c.do(&Request{Op: OpList}, true)
	if err != nil {
		return nil, err
	}
	names := resp.Names
	resp.free()
	return names, nil
}

// Remove implements smartfam.FS.
func (c *Client) Remove(name string) error {
	return c.doDiscard(&Request{Op: OpRemove, Name: name}, false)
}

// Rename implements smartfam.FS.
func (c *Client) Rename(oldname, newname string) error {
	return c.doDiscard(&Request{Op: OpRename, Name: oldname, To: newname}, false)
}

// WriteFile replaces a file's contents. Payloads over MaxChunk are staged
// chunk-by-chunk through the pipeline and committed with an atomic
// server-side rename, so readers never observe a half-written file.
func (c *Client) WriteFile(name string, data []byte) error {
	if len(data) <= MaxChunk {
		return c.doDiscard(&Request{Op: OpWrite, Name: name, Data: data}, true)
	}
	return c.stageAndCommit(name, data, CommitReplace, 0)
}

// ReplaceIf implements smartfam.ReplaceFS: data is staged beside name and
// committed over it in one server-side rename, under the append lock,
// only while name is still size bytes long (smartfam.ErrLogChanged
// otherwise). The server gives name a new identity.
func (c *Client) ReplaceIf(name string, data []byte, size int64) error {
	if size <= 0 {
		return fmt.Errorf("nfs: replace %s: expected size %d, want > 0", name, size)
	}
	return c.stageAndCommit(name, data, CommitReplace, size)
}

// ReadFile fetches a whole file through one stream, into a buffer sized
// from the file size its first reply reports.
func (c *Client) ReadFile(name string) ([]byte, error) {
	r, err := c.openReaderAt(name, 0, 0)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.readRest(make([]byte, 0, r.Len()))
}

// OpenReader returns a streaming reader over a remote file. Reads page
// through MaxChunk-sized RPCs with readAheadDepth chunks prefetched
// through the pipeline, so arbitrarily large files stream at link speed
// without being resident on either side. The open sends the first
// prefetch window at once and waits only for its first reply, so a
// missing file fails here with smartfam.ErrNotExist and the first Read
// does not pay the round trip again. Every reply reports the file's size
// as of its read; the reader asks nothing at or past the last size
// reported, and the stream ends at the first reply that reaches the end
// of the file as of that reply (bytes appended after it are not read).
func (c *Client) OpenReader(name string) (io.ReadCloser, error) {
	return c.OpenReaderAt(name, 0)
}

// OpenReaderAt is OpenReader starting at byte offset off.
func (c *Client) OpenReaderAt(name string, off int64) (io.ReadCloser, error) {
	return c.openReaderAt(name, off, 0)
}

// OpenRangeReader is OpenReaderAt with the caller's declared range length:
// read-ahead pipelines freely up to off+length but never past it, and any
// bytes the consumer needs beyond the range (a scanner finishing a record
// that straddles the boundary) are demand-paged in small chunks. A short
// range scan then moves ~its own bytes over the wire instead of dragging
// the full read-ahead window along. length <= 0 means unbounded, which is
// exactly OpenReaderAt.
func (c *Client) OpenRangeReader(name string, off, length int64) (io.ReadCloser, error) {
	var bound int64
	if length > 0 {
		bound = off + length
	}
	return c.openReaderAt(name, off, bound)
}

// openReaderAt opens the one stream reader every read path shares. No Stat
// goes out: the first prefetch window does, and the open waits for its
// first reply alone — the round trip the first Read would pay anyway —
// which both surfaces a missing file and tells the reader the file's size
// before it asks for more. Learning the size first would idle the link for
// a round trip before the rest of the window went out.
func (c *Client) openReaderAt(name string, off, bound int64) (*remoteReader, error) {
	r := &remoteReader{c: c, name: name, next: off, pos: off, bound: bound, size: -1}
	r.fill()
	resp, err := r.nextChunk()
	if err != nil {
		r.Close() // settles the rest of the window
		return nil, err
	}
	if resp != nil {
		r.cur, r.data = resp, resp.Data
	}
	return r, nil
}

// remoteReader streams a remote file with pipelined read-ahead: up to
// readAheadDepth chunk requests are in flight ahead of the consumer, so
// sequential reads overlap round trips and transfer with consumption.
type remoteReader struct {
	c      *Client
	name   string
	next   int64   // offset of the next prefetch to issue
	pos    int64   // offset of the next byte Read returns
	bound  int64   // declared range end; 0 = unbounded (see OpenRangeReader)
	size   int64   // the file's size as the last reply reported; -1 before one
	queue  []*call // issued prefetches, in offset order
	cur    *Response
	data   []byte // unread tail of cur
	eof    bool   // a reply reached the end of the file; stop issuing
	err    error  // sticky failure: the stream may have a hole past here
	closed bool
}

// boundTailChunk sizes the demand-paged fetches past a bounded reader's
// declared range end — just enough for a scanner to finish the record that
// straddles the boundary.
const boundTailChunk = 4 << 10

// fill tops the prefetch window back up, never asking at or past the size
// the last reply reported: the request that reaches that size is answered
// EOF, so a stream of an unchanging file leaves nothing in flight past its
// end. Before the first reply the size is unknown and the whole window
// goes out.
func (r *remoteReader) fill() {
	for !r.eof && len(r.queue) < readAheadDepth {
		n := int64(MaxChunk)
		if r.size >= 0 {
			if r.next >= r.size {
				return
			}
			n = min(n, r.size-r.next)
		}
		if r.bound > 0 {
			switch {
			case r.next < r.bound:
				n = min(n, r.bound-r.next)
			case len(r.queue) > 0:
				// Past the declared range: strictly one tail fetch at a
				// time, issued only when the consumer actually needs it.
				return
			default:
				n = min(n, boundTailChunk)
			}
		}
		f := r.c.send(&Request{Op: OpReadAt, Name: r.name, Off: r.next, N: int(n)}, true)
		r.next += n
		r.queue = append(r.queue, f)
	}
}

// nextChunk returns the next chunk response in offset order, nil at EOF.
// The caller frees the response. Any error is sticky: a failed chunk would
// leave a hole in the stream, so the reader refuses to continue past it.
func (r *remoteReader) nextChunk() (*Response, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.queue) == 0 && !r.eof {
		r.fill()
	}
	if len(r.queue) == 0 {
		// Ended, or every byte below the last reported size was read: a
		// reply that reaches the size is EOF, so the latter cannot happen
		// with a consistent server.
		r.eof = true
		return nil, nil
	}
	f := r.queue[0]
	r.queue = r.queue[1:]
	resp, err := f.wait()
	if err != nil {
		r.err = err
		return nil, err
	}
	r.size = resp.Size
	if resp.EOF || len(resp.Data) == 0 {
		r.eof = true
		r.drain()
	} else {
		r.fill()
	}
	if len(resp.Data) == 0 {
		resp.free()
		return nil, nil
	}
	return resp, nil
}

// drain settles and discards every outstanding prefetch (they have all
// been sent; their responses arrive regardless). Only the first window,
// sent before any reply reported the size, can reach past the end.
func (r *remoteReader) drain() {
	for _, f := range r.queue {
		if resp, err := f.wait(); err == nil && resp != nil {
			resp.free()
		}
	}
	r.queue = nil
}

// Len reports how many unread bytes the stream holds as of the last
// reply's file size: a capacity hint for a consumer that reads it whole.
func (r *remoteReader) Len() int {
	return int(max(r.size-r.pos, 0))
}

// readRest appends everything left in the stream to dst.
func (r *remoteReader) readRest(dst []byte) ([]byte, error) {
	for {
		dst = append(dst, r.data...)
		r.pos += int64(len(r.data))
		r.data = nil
		if r.cur != nil {
			r.cur.free()
			r.cur = nil
		}
		resp, err := r.nextChunk()
		if resp == nil || err != nil {
			return dst, err
		}
		r.cur, r.data = resp, resp.Data
	}
}

func (r *remoteReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("nfs: read from closed reader for %s", r.name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	total := 0
	for total < len(p) {
		if len(r.data) == 0 {
			if r.cur != nil {
				r.cur.free()
				r.cur = nil
			}
			if r.err != nil {
				if total > 0 {
					return total, nil
				}
				return 0, r.err
			}
			if r.eof && len(r.queue) == 0 {
				break
			}
			// Batch into large caller buffers while chunks are ready, but
			// never block once we already have bytes to deliver.
			if total > 0 && (len(r.queue) == 0 || !r.queue[0].ready()) {
				break
			}
			resp, err := r.nextChunk()
			if err != nil {
				if total > 0 {
					return total, nil // err is sticky; next Read surfaces it
				}
				return 0, err
			}
			if resp == nil {
				break
			}
			r.cur, r.data = resp, resp.Data
		}
		n := copy(p[total:], r.data)
		r.data = r.data[n:]
		r.pos += int64(n)
		total += n
	}
	if total == 0 {
		return 0, io.EOF
	}
	return total, nil
}

func (r *remoteReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.drain()
	if r.cur != nil {
		r.cur.free()
		r.cur = nil
	}
	r.data = nil
	return nil
}

// countingConn tallies raw wire bytes in both directions, framing included.
type countingConn struct {
	net.Conn
	sent *metrics.Counter
	recv *metrics.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

var _ smartfam.FS = (*Client)(nil)
