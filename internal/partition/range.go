package partition

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// RangeReader serves the word-aligned view of a byte range [start, end) of
// a delimited stream, so independent readers of adjacent ranges together
// see every record exactly once — the discipline that lets the fleet
// scatter one file across SD nodes by offset with no coordination:
//
//   - a record belongs to the range containing its first byte;
//   - a reader whose range starts mid-record (the byte before start is not
//     a delimiter) skips forward through the record's trailing delimiter
//     before serving — that torn head belongs to the previous range;
//   - a reader whose range ends mid-record keeps serving through the
//     record's trailing delimiter — the torn tail is part of a record that
//     started inside its range.
//
// The underlying reader must be positioned at LeadIn(start) of the file:
// one byte before the range when start > 0, so the reader can see whether
// a record straddles the boundary without any other context.
type RangeReader struct {
	r     *bufio.Reader
	isDel [256]bool
	pos   int64 // absolute offset of the next byte to consume from r
	end   int64
	state rangeState
	// lastServed is the final byte handed to the caller so far; it decides
	// at the nominal end whether the reader stops clean or extends.
	lastServed byte
}

type rangeState uint8

const (
	rangeSkipping  rangeState = iota // consuming the previous range's torn tail
	rangeServing                     // inside [start, end)
	rangeExtending                   // past end, finishing a record we own
	rangeDone
)

// LeadIn returns the file offset at which the underlying reader for range
// [start, _) must be positioned: start-1 when start > 0 (one byte of
// context to detect a straddling record), otherwise 0.
func LeadIn(start int64) int64 {
	if start > 0 {
		return start - 1
	}
	return 0
}

// NewRangeReader wraps r, which must be positioned at LeadIn(start) of the
// underlying file, and serves the word-aligned range [start, end). Empty
// delims means DefaultDelimiters. end past EOF simply serves to EOF.
func NewRangeReader(r io.Reader, start, end int64, delims []byte) (*RangeReader, error) {
	if start < 0 || end < start {
		return nil, fmt.Errorf("partition: invalid range [%d, %d)", start, end)
	}
	rr := &RangeReader{r: bufio.NewReaderSize(r, 256<<10), pos: LeadIn(start), end: end}
	if len(delims) == 0 {
		delims = DefaultDelimiters
	}
	for _, d := range delims {
		rr.isDel[d] = true
	}
	switch {
	case start == end:
		// An empty range owns no record starts; never serve.
		rr.state = rangeDone
	case start == 0:
		rr.state = rangeServing
	}
	return rr, nil
}

// Read implements io.Reader over the aligned range.
func (rr *RangeReader) Read(p []byte) (int, error) {
	for {
		switch rr.state {
		case rangeSkipping:
			// Consume bytes from start-1 through the first delimiter: either
			// just the boundary delimiter itself, or the torn tail of the
			// previous range's final record.
			b, err := rr.r.ReadByte()
			if err == io.EOF {
				rr.state = rangeDone
				continue
			}
			if err != nil {
				return 0, fmt.Errorf("partition: range skip: %w", err)
			}
			rr.pos++
			if rr.isDel[b] {
				if rr.pos >= rr.end {
					// The skip swallowed the whole range: no record starts
					// inside [start, end), so this reader owns nothing.
					rr.state = rangeDone
				} else {
					rr.state = rangeServing
				}
			}
		case rangeServing:
			if rr.pos >= rr.end {
				if rr.isDel[rr.lastServed] {
					rr.state = rangeDone
				} else {
					rr.state = rangeExtending
				}
				continue
			}
			limit := rr.end - rr.pos
			if int64(len(p)) > limit {
				p = p[:limit]
			}
			if len(p) == 0 {
				return 0, nil
			}
			n, err := rr.r.Read(p)
			if n > 0 {
				rr.pos += int64(n)
				rr.lastServed = p[n-1]
				return n, nil
			}
			if err == io.EOF {
				rr.state = rangeDone
				continue
			}
			if err != nil {
				return 0, fmt.Errorf("partition: range read: %w", err)
			}
		case rangeExtending:
			// The range ended mid-record; the record's first byte was ours,
			// so serve through its trailing delimiter.
			n := 0
			for n < len(p) {
				b, err := rr.r.ReadByte()
				if err == io.EOF {
					rr.state = rangeDone
					break
				}
				if err != nil {
					return n, fmt.Errorf("partition: range extend: %w", err)
				}
				rr.pos++
				p[n] = b
				n++
				if rr.isDel[b] {
					rr.state = rangeDone
					break
				}
			}
			if n > 0 {
				rr.lastServed = p[n-1]
				return n, nil
			}
		case rangeDone:
			return 0, io.EOF
		}
	}
}

// RangeChain reads the word-aligned views of several ascending, disjoint
// byte ranges of one file back to back, as one stream: a fleet node's
// bundle. A view ends on a delimiter unless it reaches EOF, which only the
// last range can, so the concatenation holds exactly the records of the
// ranges with none glued to its neighbour.
//
// Ranges open in order and one ahead: the next range's open starts, off
// the read path, when the current one starts serving, and a read waits for
// it only when it needs the range. A store that prefetches at open, as
// nfs.Client's range reader does and which answers its open only once the
// first chunk has crossed, fetches range i+1 while range i is scanned, but
// no further. With every range open at once the store serves them in
// arbitrary order, and a scan that needs the bytes in order waits for
// whichever range lands last.
type RangeChain struct {
	open func(off, length int64) (io.ReadCloser, error)
	todo [][2]int64 // ranges not opened yet
	cur  *rangeView
	next *rangeOpen // the open of the range after cur; nil when none is left
	err  error      // sticky: a failed open leaves a hole in the stream
}

// rangeOpen is one range's open, in flight until done is closed.
type rangeOpen struct {
	done chan struct{}
	v    *rangeView
	err  error
}

// wait returns the opened range once its open has finished.
func (o *rangeOpen) wait() (*rangeView, error) {
	<-o.done
	return o.v, o.err
}

// rangeView is one opened range: the file and its aligned view.
type rangeView struct {
	f  io.ReadCloser
	rr *RangeReader
}

// NewRangeChain validates ranges (each [start, end) with 0 <= start <=
// end, ascending, not overlapping), drops empty ones, coalesces adjacent
// ones, opens the first and starts opening the second. open(off, length)
// must return the file positioned at off for a scan of about length bytes;
// it must still serve bytes past off+length, where a range finishes its
// last record. A later range's open error surfaces at the read that needs
// that range.
func NewRangeChain(ranges [][2]int64, open func(off, length int64) (io.ReadCloser, error)) (*RangeChain, error) {
	todo := make([][2]int64, 0, len(ranges))
	for _, rg := range ranges {
		if rg[0] < 0 || rg[1] < rg[0] {
			return nil, fmt.Errorf("partition: invalid range [%d, %d)", rg[0], rg[1])
		}
		if rg[0] == rg[1] {
			continue // owns no record start
		}
		if k := len(todo) - 1; k >= 0 {
			if rg[0] < todo[k][1] {
				return nil, fmt.Errorf("partition: range [%d, %d) overlaps or precedes [%d, %d)", rg[0], rg[1], todo[k][0], todo[k][1])
			}
			if rg[0] == todo[k][1] {
				todo[k][1] = rg[1]
				continue
			}
		}
		todo = append(todo, rg)
	}
	c := &RangeChain{open: open, todo: todo}
	if len(todo) > 0 {
		c.todo = todo[1:]
		cur, err := c.openRange(todo[0])
		if err != nil {
			return nil, err
		}
		c.cur = cur
		c.openNext()
	}
	return c, nil
}

// openNext starts opening the first range not opened yet, if any is left,
// as next.
func (c *RangeChain) openNext() {
	if len(c.todo) == 0 {
		return
	}
	rg := c.todo[0]
	c.todo = c.todo[1:]
	o := &rangeOpen{done: make(chan struct{})}
	go func() {
		defer close(o.done)
		o.v, o.err = c.openRange(rg)
	}()
	c.next = o
}

// openRange opens rg and its aligned view.
func (c *RangeChain) openRange(rg [2]int64) (*rangeView, error) {
	lead := LeadIn(rg[0])
	f, err := c.open(lead, rg[1]-lead)
	if err != nil {
		return nil, err
	}
	rr, err := NewRangeReader(f, rg[0], rg[1], nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &rangeView{f: f, rr: rr}, nil
}

// Read implements io.Reader over the chained views.
func (c *RangeChain) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for c.err == nil && c.cur != nil {
		n, err := c.cur.rr.Read(p)
		if !errors.Is(err, io.EOF) {
			return n, err
		}
		// RangeReader reports EOF with no bytes: move to the next range
		// and start opening the one after it, never with more than two
		// ranges open.
		done := c.cur
		c.cur = nil
		if o := c.next; o != nil {
			c.next = nil
			c.cur, c.err = o.wait()
		}
		done.f.Close()
		if c.cur != nil {
			c.openNext()
		}
	}
	if c.err != nil {
		return 0, c.err
	}
	return 0, io.EOF
}

// Close releases the open ranges, waiting for an open in flight.
func (c *RangeChain) Close() error {
	views := []*rangeView{c.cur}
	if c.next != nil {
		v, _ := c.next.wait()
		views = append(views, v)
	}
	var err error
	for _, v := range views {
		if v != nil {
			if cerr := v.f.Close(); err == nil {
				err = cerr
			}
		}
	}
	c.cur, c.next = nil, nil
	return err
}

// AlignedRanges cuts total bytes into ceil(total/rangeBytes) draft ranges
// of rangeBytes each (the last one short). The draft boundaries need no
// content inspection: RangeReader's skip/extend discipline re-aligns them
// to record boundaries at read time, which is what lets a fleet coordinator
// plan fragments from a file size alone.
func AlignedRanges(total, rangeBytes int64) [][2]int64 {
	if total <= 0 {
		return nil
	}
	if rangeBytes <= 0 || rangeBytes >= total {
		return [][2]int64{{0, total}}
	}
	out := make([][2]int64, 0, (total+rangeBytes-1)/rangeBytes)
	for off := int64(0); off < total; off += rangeBytes {
		end := off + rangeBytes
		if end > total {
			end = total
		}
		out = append(out, [2]int64{off, end})
	}
	return out
}
