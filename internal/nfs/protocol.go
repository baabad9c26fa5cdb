// Package nfs is the networked file service that stands in for the NFS
// share of the paper's testbed (§III-B): the McSD node exports a directory;
// the host mounts it and reads/writes files — data files and smartFAM log
// files — so that every byte of host-side access to SD-resident data
// crosses the network, exactly the data movement McSD exists to avoid.
//
// The wire protocol is a hand-rolled length-prefixed binary framing over
// one TCP connection per client, with a per-request Tag so many requests
// can be in flight at once (the client pipelines them through a bounded
// window and demultiplexes responses by tag). Wrap the connection (or the
// listener) with netsim.Throttle to make the traffic pay Gigabit-Ethernet
// costs.
package nfs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"mcsd/internal/smartfam"
)

// Op codes.
const (
	OpCreate = "create"
	OpAppend = "append"
	OpReadAt = "readat"
	OpStat   = "stat"
	OpList   = "list"
	OpRemove = "remove"
	OpRename = "rename" // atomic replace of Request.To by Request.Name
	OpWrite  = "write"  // whole-file write (truncate + create dirs)
	OpPing   = "ping"
	OpCommit = "commit" // splice staged temp Request.Name into Request.To server-side
	OpSum    = "sum"    // CRC32 of up to Request.N bytes at Request.Off, computed server-side
	OpWatch  = "watch"  // register the prefix set in Request.Data; the server streams notify frames on NotifyTag
)

// NotifyTag is the reserved demux lane for unsolicited server->client
// change notifications. Client-issued requests are tagged starting at 1
// (transmit pre-increments), so tag 0 can never collide with a pending
// call: the demux routes any frame carrying it to the connection's watch
// streams instead of the pending map. A notify frame reuses the Response
// encoding — Names[0] is the changed file, Gen its identity, and
// for an append of at most inlineNotifyMax bytes Data is the appended
// bytes and Size the offset they landed at (Data is empty otherwise). The
// connection that made an append hears no notify for it: its OpAppend
// response carries Landed, and the client delivers its own bytes locally.
const NotifyTag = 0

// encodePrefixes packs an OpWatch prefix set into Request.Data, each
// prefix NUL-terminated (NUL cannot occur in a share path), so the empty
// set and the set {""} (the whole share) stay distinct.
func encodePrefixes(prefixes []string) []byte {
	var b []byte
	for _, p := range prefixes {
		b = append(append(b, p...), 0)
	}
	return b
}

// decodePrefixes inverts encodePrefixes.
func decodePrefixes(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	return strings.Split(string(bytes.TrimSuffix(data, []byte{0})), "\x00")
}

// Commit modes, carried in Request.N of an OpCommit: whether the staged
// temp file is appended to the target or atomically replaces it. A
// replace with a positive Request.Off happens only while the target is
// Off bytes long, else it fails with errReplaceChanged, which the client
// maps to smartfam.ErrLogChanged.
const (
	CommitAppend  = 0
	CommitReplace = 1

	errReplaceChanged = "nfs: replace: target changed size"
)

// Request is one client->server message. Tag correlates the response on a
// pipelined connection; the server echoes it verbatim.
type Request struct {
	Tag  uint64
	Op   string
	Name string
	To   string // rename destination / commit target
	Data []byte
	Off  int64
	N    int
}

// Response is one server->client message. On the client Data is a
// zero-copy subslice of a pooled frame buffer; the client releases it back
// to the pool once the payload has been consumed. On the server an
// OpReadAt reply's Data is a pooled buffer the serve loop releases once
// the reply is written.
type Response struct {
	Tag  uint64
	Data []byte
	// Size is the file's size: as of the stat (OpStat), as of the read
	// (OpReadAt, never less than Off plus the bytes returned), the offset
	// the bytes landed at (Landed OpAppend replies, inline notifies), or
	// the CRC (OpSum).
	Size     int64
	MTimeNs  int64
	Gen      uint64 // the file's identity (OpStat and OpAppend replies, notify frames)
	Names    []string
	Err      string
	NotExist bool
	// EOF marks an OpReadAt reply whose range reached the end of the file
	// as of that reply: it came up short, or it ends at Size. An OpSum
	// reply sets it when its range came up short.
	EOF bool
	// Landed marks an OpAppend reply whose Size is the offset the bytes
	// landed at and Gen the file's identity: the server queued
	// every watcher but the appending connection a notify for them.
	Landed bool

	frame *frameBuf // pooled backing buffer of Data
}

// free returns the response's pooled frame buffer, if any. The response's
// Data must not be used afterwards.
func (r *Response) free() {
	if r.frame != nil {
		putFrame(r.frame)
		r.frame = nil
		r.Data = nil
	}
}

// MaxChunk bounds one ReadAt/Append payload so a single RPC cannot pin
// unbounded memory; larger operations are chunked by the client.
const MaxChunk = 1 << 20

// maxFrame bounds one binary frame body: a MaxChunk payload plus generous
// header/name-list room. The decoder rejects anything larger outright, so
// a corrupt length prefix cannot balloon into an arbitrary allocation.
const maxFrame = MaxChunk + 1<<20

// ErrRemote wraps a server-side failure.
var ErrRemote = errors.New("nfs: remote error")

// ErrFrame marks a malformed binary frame (bad length prefix, truncated
// body, unknown op code, inconsistent field lengths).
var ErrFrame = errors.New("nfs: malformed frame")

// ErrWatchUnsupported marks an OpWatch the server cannot serve: pre-watch
// servers answer the op with an unknown-op error. Callers fall back to
// polling. Wraps the smartfam sentinel so FS consumers can detect the
// permanent case without importing this package.
var ErrWatchUnsupported = fmt.Errorf("nfs: %w", smartfam.ErrWatchUnsupported)

// cleanName validates a share-relative path: non-empty, slash-separated,
// no "." or ".." components, no leading slash.
func cleanName(name string) (string, error) {
	if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, `\`) {
		return "", fmt.Errorf("nfs: invalid path %q", name)
	}
	for _, part := range strings.Split(name, "/") {
		if part == "" || part == "." || part == ".." {
			return "", fmt.Errorf("nfs: invalid path %q", name)
		}
	}
	return name, nil
}

// Every message is one frame:
//
//	uint32 length (big-endian, body length, high byte always 0x00) | body
//
// maxFrame keeps every length below 2^24, so a well-formed connection's
// first byte is always 0x00; anything else fails the decoder's length check
// as a malformed frame and the connection is closed.
//
// Request body:
//
//	tag uv | op u8 | off v | n v | nameLen uv | name | toLen uv | to | data…
//
// Response body:
//
//	tag uv | flags u8 | size v | mtimeNs v | gen uv | errLen uv | err |
//	nameCount uv | { nameLen uv | name }… | data…
//
// uv is an unsigned varint (binary.AppendUvarint), v a zig-zag signed one
// (binary.AppendVarint): a small tag, offset or length costs one byte, so
// a frame carrying one smartFAM record pays a few header bytes, not the
// tens a fixed-width layout costs. flags holds EOF, NotExist and Landed. A
// name, path or error is at most 0xffff bytes. The payload is the
// unframed tail in both directions, so decoding hands out a zero-copy
// subslice of the frame buffer instead of re-allocating per chunk.

// Response flag bits.
const (
	flagEOF      = 1 << 0
	flagNotExist = 1 << 1
	flagLanded   = 1 << 2
)

// opCodes maps op names to their single-byte wire codes; opNames is the
// inverse. Code 0 is reserved (it marks an unknown op on decode).
var opCodes = map[string]byte{
	OpCreate: 1, OpAppend: 2, OpReadAt: 3, OpStat: 4, OpList: 5,
	OpRemove: 6, OpRename: 7, OpWrite: 8, OpPing: 9, OpCommit: 10,
	OpSum: 11, OpWatch: 12,
}

var opNames = func() [13]string {
	var names [13]string
	for name, code := range opCodes {
		names[code] = name
	}
	return names
}()

// frameBuf is a pooled frame body. Responses decoded from the wire keep a
// reference so the payload subslice can be released explicitly once copied
// out (or fully streamed) instead of churning a MaxChunk allocation per RPC.
type frameBuf struct {
	b []byte
}

var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 64<<10)} },
}

func getFrame(n int) *frameBuf {
	fb := framePool.Get().(*frameBuf)
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	}
	fb.b = fb.b[:n]
	return fb
}

func putFrame(fb *frameBuf) {
	framePool.Put(fb)
}

// frameEncoder serializes messages into one reused buffer and emits each
// frame with a single Write, so a paced (netsim-throttled) connection sees
// one contiguous burst per message rather than a dribble of header writes.
type frameEncoder struct {
	w   io.Writer
	buf []byte
}

func newFrameEncoder(w io.Writer) *frameEncoder {
	return &frameEncoder{w: w, buf: make([]byte, 0, 4<<10)}
}

func (e *frameEncoder) flushFrame() error {
	body := len(e.buf) - 4
	if body > maxFrame {
		return fmt.Errorf("%w: frame body %d exceeds %d", ErrFrame, body, maxFrame)
	}
	binary.BigEndian.PutUint32(e.buf[:4], uint32(body))
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	return nil
}

// maxName bounds a name, path or error string on the wire.
const maxName = 0xffff

func appendName(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func (e *frameEncoder) writeRequest(r *Request) error {
	code, ok := opCodes[r.Op]
	if !ok {
		// Unknown ops still cross the wire: the server answers with its
		// "unknown op" error, which is how a pre-watch server is probed.
		code = 0
	}
	if len(r.Name) > maxName || len(r.To) > maxName {
		return fmt.Errorf("%w: path too long", ErrFrame)
	}
	b := append(e.buf[:0], 0, 0, 0, 0) // length backpatched by flushFrame
	b = binary.AppendUvarint(b, r.Tag)
	b = append(b, code)
	b = binary.AppendVarint(b, r.Off)
	b = binary.AppendVarint(b, int64(r.N))
	b = appendName(b, r.Name)
	b = appendName(b, r.To)
	b = append(b, r.Data...)
	e.buf = b
	if err := e.flushFrame(); err != nil {
		return fmt.Errorf("nfs: encoding request: %w", err)
	}
	return nil
}

func (e *frameEncoder) writeResponse(r *Response) error {
	if len(r.Err) > maxName {
		r = &Response{Tag: r.Tag, Err: r.Err[:maxName], Gen: r.Gen, NotExist: r.NotExist, EOF: r.EOF}
	}
	var flags byte
	if r.EOF {
		flags |= flagEOF
	}
	if r.NotExist {
		flags |= flagNotExist
	}
	if r.Landed {
		flags |= flagLanded
	}
	b := append(e.buf[:0], 0, 0, 0, 0)
	b = binary.AppendUvarint(b, r.Tag)
	b = append(b, flags)
	b = binary.AppendVarint(b, r.Size)
	b = binary.AppendVarint(b, r.MTimeNs)
	b = binary.AppendUvarint(b, r.Gen)
	b = appendName(b, r.Err)
	b = binary.AppendUvarint(b, uint64(len(r.Names)))
	for _, n := range r.Names {
		if len(n) > maxName {
			return fmt.Errorf("%w: name too long", ErrFrame)
		}
		b = appendName(b, n)
	}
	b = append(b, r.Data...)
	e.buf = b
	if err := e.flushFrame(); err != nil {
		return fmt.Errorf("nfs: encoding response: %w", err)
	}
	return nil
}

// frameDecoder reads frames off a buffered connection. The server side
// reuses one grow-only scratch buffer (requests are handled one at a time
// per connection); the client side pulls pooled buffers so many decoded
// responses can be alive at once under pipelining.
type frameDecoder struct {
	r       *bufio.Reader
	lenBuf  [4]byte
	scratch []byte // server-side reuse; nil selects pooled frames
	pooled  bool
}

func newFrameDecoder(r *bufio.Reader, pooled bool) *frameDecoder {
	return &frameDecoder{r: r, pooled: pooled}
}

// readFrame returns the next frame body. With pooling, the returned
// *frameBuf owns the bytes and must be released via putFrame; without, the
// body aliases the decoder's scratch and is valid until the next call.
func (d *frameDecoder) readFrame() ([]byte, *frameBuf, error) {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, fmt.Errorf("%w: truncated length prefix", ErrFrame)
		}
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(d.lenBuf[:])
	if n > maxFrame {
		return nil, nil, fmt.Errorf("%w: body length %d exceeds %d", ErrFrame, n, maxFrame)
	}
	var body []byte
	var fb *frameBuf
	if d.pooled {
		fb = getFrame(int(n))
		body = fb.b
	} else {
		if cap(d.scratch) < int(n) {
			d.scratch = make([]byte, n)
		}
		body = d.scratch[:n]
	}
	if _, err := io.ReadFull(d.r, body); err != nil {
		if fb != nil {
			putFrame(fb)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, fmt.Errorf("%w: truncated body (want %d bytes)", ErrFrame, n)
		}
		return nil, nil, err
	}
	return body, fb, nil
}

// cursor walks a frame body with bounds checking; ok flips false on the
// first short read, bad varint or over-long name, and stays false.
type cursor struct {
	b  []byte
	ok bool
}

func (c *cursor) u8() byte {
	if !c.ok || len(c.b) < 1 {
		c.ok = false
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// uvarint reads an unsigned varint; a truncated one, or one past 64 bits,
// fails the cursor.
func (c *cursor) uvarint() uint64 {
	if !c.ok {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.ok = false
		return 0
	}
	c.b = c.b[n:]
	return v
}

// varint reads a zig-zag signed varint, failing as uvarint does.
func (c *cursor) varint() int64 {
	if !c.ok {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.ok = false
		return 0
	}
	c.b = c.b[n:]
	return v
}

// name reads a length-prefixed name, path or error string of at most
// maxName bytes.
func (c *cursor) name() string {
	n := c.uvarint()
	if n > maxName {
		c.ok = false
		return ""
	}
	return string(c.bytes(int(n)))
}

func (c *cursor) bytes(n int) []byte {
	if !c.ok || n < 0 || len(c.b) < n {
		c.ok = false
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// decodeRequest parses a request frame body into r. r.Data aliases body.
func decodeRequest(body []byte, r *Request) error {
	cur := cursor{b: body, ok: true}
	*r = Request{}
	r.Tag = cur.uvarint()
	code := cur.u8()
	r.Off = cur.varint()
	r.N = int(cur.varint())
	r.Name = cur.name()
	r.To = cur.name()
	if !cur.ok {
		return fmt.Errorf("%w: truncated request header", ErrFrame)
	}
	if int(code) < len(opNames) {
		r.Op = opNames[code]
	}
	if r.Op == "" {
		r.Op = fmt.Sprintf("op#%d", code)
	}
	r.Data = cur.b
	return nil
}

// decodeResponse parses a response frame body into r. r.Data aliases body.
func decodeResponse(body []byte, r *Response) error {
	cur := cursor{b: body, ok: true}
	*r = Response{}
	r.Tag = cur.uvarint()
	flags := cur.u8()
	r.Size = cur.varint()
	r.MTimeNs = cur.varint()
	r.Gen = cur.uvarint()
	r.Err = cur.name()
	nNames := cur.uvarint()
	if !cur.ok {
		return fmt.Errorf("%w: truncated response header", ErrFrame)
	}
	// Each listed name costs at least its 1-byte length, which bounds the
	// count before any allocation happens.
	if nNames > uint64(len(cur.b)) {
		return fmt.Errorf("%w: name count %d exceeds frame", ErrFrame, nNames)
	}
	if nNames > 0 {
		r.Names = make([]string, 0, nNames)
		for i := uint64(0); i < nNames; i++ {
			r.Names = append(r.Names, cur.name())
		}
		if !cur.ok {
			return fmt.Errorf("%w: truncated name list", ErrFrame)
		}
	}
	r.EOF = flags&flagEOF != 0
	r.NotExist = flags&flagNotExist != 0
	r.Landed = flags&flagLanded != 0
	r.Data = cur.b
	return nil
}

// binClientCodec is the client end of a connection: responses come
// out of pooled frame buffers so a pipelined window of chunk payloads can
// be alive at once without per-RPC allocations.
type binClientCodec struct {
	enc *frameEncoder
	dec *frameDecoder
}

func newBinClientCodec(r io.Reader, w io.Writer) *binClientCodec {
	return &binClientCodec{
		enc: newFrameEncoder(w),
		dec: newFrameDecoder(bufio.NewReaderSize(r, 64<<10), true),
	}
}

func (c *binClientCodec) writeRequest(r *Request) error { return c.enc.writeRequest(r) }

func (c *binClientCodec) readResponse(r *Response) error {
	body, fb, err := c.dec.readFrame()
	if err != nil {
		return err
	}
	if err := decodeResponse(body, r); err != nil {
		if fb != nil {
			putFrame(fb)
		}
		return err
	}
	r.frame = fb
	return nil
}

// binServerCodec is the server end: one scratch buffer per connection,
// reused across requests (the server finishes each request before reading
// the next on that connection).
type binServerCodec struct {
	enc *frameEncoder
	dec *frameDecoder
}

func newBinServerCodec(r *bufio.Reader, w io.Writer) *binServerCodec {
	return &binServerCodec{enc: newFrameEncoder(w), dec: newFrameDecoder(r, false)}
}

func (c *binServerCodec) readRequest(r *Request) error {
	body, _, err := c.dec.readFrame()
	if err != nil {
		return err
	}
	return decodeRequest(body, r)
}

func (c *binServerCodec) writeResponse(r *Response) error { return c.enc.writeResponse(r) }
