package smartfam

import (
	"errors"
	"io"
	"slices"
)

// scanChunk is a log cursor's read size, and the router's held-bytes
// bound: thousands of records, within the share's single-RPC read bound.
const scanChunk = 256 << 10

// logCursor is the one reader of a module log — the daemon's drain,
// recovery scan and landed-member check, the host's response router, and
// compaction all read through one. It owns the offset and the identity
// the log had at the last look (GenStat), reads in scanChunk pieces,
// holds back a torn tail until an append completes it, and counts and
// skips corrupt lines. Not safe for concurrent use.
type logCursor struct {
	fs      FS
	name    string
	off     int64       // where the first record not yet handed over starts
	id      uint64      // the log's identity at the last look
	torn    bool        // the bytes at off end in a record torn mid-append
	buf     []byte      // read buffer, allocated on the first read
	corrupt func(n int) // counts skipped corrupt lines, when set
}

// statLog returns a log's size and identity in one share operation:
// StatGen where the share has it, else Stat with identity 0.
func statLog(fsys FS, name string) (int64, uint64, error) {
	if gs, ok := fsys.(GenStat); ok {
		size, _, id, err := gs.StatGen(name)
		return size, id, err
	}
	size, _, err := fsys.Stat(name)
	return size, 0, err
}

// look records a look at the log (statLog's size and identity) and
// restarts the cursor at zero — reporting true — when the log is no
// longer the file the offset points into: a new identity, or a log
// shorter than the offset.
func (c *logCursor) look(size int64, id uint64) bool {
	if id == c.id && size >= c.off {
		return false
	}
	c.id, c.off, c.torn = id, 0, false
	return true
}

// parse hands the records in b, the log's bytes at the offset, to fn
// with their file positions, moves the offset past every complete one and
// returns how many bytes that was; a torn tail stays behind.
func (c *logCursor) parse(b []byte, fn func([]Record)) int {
	recs, consumed, corrupt, err := ParseRecords(b)
	if err != nil { // a line past maxRecordLine: skip the rest
		consumed, corrupt = len(b), corrupt+1
	}
	c.count(corrupt)
	for i := range recs {
		recs[i].Pos += c.off
	}
	c.off += int64(consumed)
	c.torn = consumed < len(b)
	if len(recs) > 0 {
		fn(recs)
	}
	return consumed
}

func (c *logCursor) count(corrupt int) {
	if corrupt > 0 && c.corrupt != nil {
		c.corrupt(corrupt)
	}
}

// read reads the log from the offset up to end (to its end when end < 0),
// handing what it parses to fn, and returns the bytes read and the error
// that stopped it (io.EOF aside). A read's unparsed tail — a record's
// head — moves to the front of the buffer and the next read continues
// behind it; a record longer than the buffer doubles it, and the buffer
// drops back to scanChunk afterwards. A newline-free run of maxRecordLine
// bytes is skipped as one corrupt record rather than waited on for good.
// A short read ends the read: a torn tail waits for the append that
// completes it.
func (c *logCursor) read(end int64, fn func([]Record)) (int, error) {
	if c.buf == nil {
		c.buf = make([]byte, scanChunk)
	}
	read, head := 0, 0 // head: unparsed bytes at the front of c.buf
	var err error
	for end < 0 || c.off+int64(head) < end {
		if head == len(c.buf) {
			if head >= maxRecordLine {
				c.off, head, c.torn = c.off+int64(head), 0, false
				c.count(1)
				continue
			}
			c.buf = slices.Grow(c.buf, head)[:2*head]
		}
		p := c.buf[head:]
		if end >= 0 {
			p = p[:min(int64(len(p)), end-c.off-int64(head))]
		}
		var n int
		n, err = c.fs.ReadAt(c.name, p, c.off+int64(head))
		read += n
		if n > 0 {
			consumed := c.parse(c.buf[:head+n], fn)
			head = copy(c.buf, c.buf[consumed:head+n])
		}
		if err != nil || n < len(p) {
			break
		}
	}
	if len(c.buf) > scanChunk {
		c.buf = nil
	}
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return read, err
}
