// Package partition implements the paper's Partitioning/Merging extension
// to the Phoenix runtime (§IV-B, §IV-C, Figs. 6 and 7).
//
// Native Phoenix keeps the input and all intermediate pairs in memory, so
// it cannot run an application whose data does not comfortably fit — and it
// thrashes long before that. The extension cuts a large input into
// fragments no bigger than a partition size, pushes every fragment boundary
// forward to the next delimiter so no record is torn (the integrity check
// of Fig. 7), runs the unmodified MapReduce procedure over each fragment —
// as many at once as the node's memory allows — and folds the per-fragment
// outputs, in scan order, together with a user-supplied Merge function
// (Fig. 6's two-stage workflow).
package partition

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"sync"
)

// DefaultDelimiters are the integrity-check stop bytes when the programmer
// does not define their own symbol: "the first space, return" (Fig. 7).
var DefaultDelimiters = []byte{' ', '\n', '\r', '\t'}

// Options configures a partitioner.
type Options struct {
	// FragmentSize is the [partition-size] argument: the draft number of
	// bytes per fragment before the integrity check extends it. Zero or
	// negative means "run in native way" — one fragment with everything
	// (§IV-C: "If there is no [partition-size] parameter, the program
	// will run in native way").
	FragmentSize int64
	// Delimiters are the bytes at which a record may legally end. Empty
	// means DefaultDelimiters.
	Delimiters []byte
	// MaxScan bounds the integrity check's extra displacement; 0 means
	// unbounded (scan to EOF if no delimiter appears).
	MaxScan int64
}

// delimTable returns the lookup table of o's delimiters.
func (o Options) delimTable() *[256]bool {
	delims := o.Delimiters
	if len(delims) == 0 {
		delims = DefaultDelimiters
	}
	var t [256]bool
	for _, d := range delims {
		t[d] = true
	}
	return &t
}

// ErrScanLimit reports an integrity check that ran past MaxScan without
// finding a delimiter — the input is not partition-able at this size.
var ErrScanLimit = errors.New("partition: no delimiter within MaxScan of fragment boundary")

// Scanner yields fragments of a stream, one at a time, so a run holds only
// the fragments in flight, never the whole stream — the property that lets
// McSD process data sets larger than the storage node's memory.
//
// Each fragment is read once, straight from the source into a buffer of
// FragmentSize bytes plus a spare tail (see maxSpare): the integrity check
// scans the bytes already there and reads more only into the spare room.
// Bytes read past a cut open the next fragment's buffer.
type Scanner struct {
	r      io.Reader
	opts   Options
	isDel  *[256]bool
	carry  []byte // bytes read past the last cut: the next fragment's head
	eof    bool   // the source has reported io.EOF
	done   bool
	err    error // a read error past a whole fragment, for the next Next
	serial int
}

// NewScanner returns a scanner over r with the given options.
func NewScanner(r io.Reader, opts Options) *Scanner {
	return &Scanner{r: r, opts: opts, isDel: opts.delimTable()}
}

// maxSpare bounds the room a fragment buffer keeps past FragmentSize for
// the integrity check's tail reads. The room is never more than the
// fragment itself either, so tiny fragments do not each carry (and copy
// forward) a large tail.
const maxSpare = 64 << 10

// fragPool recycles fragment buffers across fragments and runs. Each
// returns each fragment once its callback is done with it; Next takes a buffer whose
// capacity fits its fragment size exactly and allocates otherwise.
var fragPool sync.Pool // *[]byte

// testRecyclePoison, when non-nil, is called with every fragment buffer,
// re-sliced to its full capacity, as Each recycles it. Tests scribble over
// it: an engine path that still reads a fragment after Run recycled it
// then surfaces the sentinel in its results. Production never sets it.
var testRecyclePoison func(buf []byte)

// takeFragBuf returns an empty buffer of capacity c.
func takeFragBuf(c int) []byte {
	if p, ok := fragPool.Get().(*[]byte); ok && cap(*p) == c {
		return (*p)[:0]
	}
	return make([]byte, 0, c)
}

// recycleFrag hands a fragment's buffer back to fragPool. The caller must
// hold no reference into it afterwards.
func recycleFrag(frag []byte) {
	if testRecyclePoison != nil {
		testRecyclePoison(frag[:cap(frag)])
	}
	frag = frag[:0]
	fragPool.Put(&frag)
}

// Next returns the next fragment, or io.EOF after the last one. The
// fragment is owned by the caller; it may come from, and may be handed
// back to, a package-level buffer pool (Each recycles each fragment once
// its callback has returned).
func (s *Scanner) Next() ([]byte, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.opts.FragmentSize <= 0 {
		// Native mode: the whole remaining stream is one fragment.
		data, err := readWhole(s.r)
		s.done = true
		if err != nil {
			return nil, fmt.Errorf("partition: reading native fragment: %w", err)
		}
		if len(data) == 0 {
			return nil, io.EOF
		}
		s.serial++
		return data, nil
	}

	size := int(s.opts.FragmentSize)
	spare := min(size, maxSpare)
	buf := append(takeFragBuf(size+spare), s.carry...)
	s.carry = s.carry[:0]
	if !s.eof && len(buf) < size {
		n, err := io.ReadFull(s.r, buf[len(buf):size])
		buf = buf[:len(buf)+n]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			s.eof = true
		default:
			return nil, fmt.Errorf("partition: reading fragment: %w", err)
		}
	}
	if len(buf) < size {
		// Short final fragment, or nothing left at all.
		s.done = true
		if len(buf) == 0 {
			return nil, io.EOF
		}
		s.serial++
		return buf, nil
	}

	// Integrity check (Fig. 7): cut one past the first delimiter at or
	// after the draft boundary's last byte. scanned counts the bytes past
	// the boundary already checked; once all in hand are, the next read
	// goes into the spare room. That holds before the first check too:
	// integrityDisplacement reads a boundary at the end of its data as
	// EOF, so it always gets at least one byte past the boundary.
	for scanned := 0; ; {
		if len(buf) == size+scanned {
			if s.eof {
				// The record runs to EOF: the fragment is everything left.
				s.done = true
				break
			}
			if len(buf) == cap(buf) {
				// A record longer than the spare room grows the buffer.
				buf = slices.Grow(buf, spare)
			}
			n, err := s.r.Read(buf[len(buf):min(cap(buf), len(buf)+spare)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				s.eof = true
			} else if err != nil {
				return nil, fmt.Errorf("partition: integrity check: %w", err)
			}
			continue
		}
		extra, ok := integrityDisplacement(buf[scanned:], size, s.isDel)
		extra += scanned
		// MaxScan admits a delimiter at displacement MaxScan, no further.
		if limit := int(s.opts.MaxScan); limit > 0 && (extra > limit || !ok && extra >= limit) {
			return nil, fmt.Errorf("%w (scanned %d bytes)", ErrScanLimit, limit)
		}
		if ok {
			cut := size + extra
			s.carry = append(s.carry, buf[cut:]...)
			buf = buf[:cut]
			break
		}
		scanned = extra
	}
	if len(s.carry) == 0 && !s.done {
		// The cut fell on the last byte read. One more read tells whether
		// the stream ends on it; what it reads opens the next fragment. The
		// fragment is whole either way, so an error of that read ends the
		// scan at the next call, not this one.
		if err := s.readCarry(spare); err != nil {
			s.err = fmt.Errorf("partition: reading fragment: %w", err)
		} else {
			s.done = len(s.carry) == 0
		}
	}
	s.serial++
	return buf, nil
}

// readCarry reads up to n bytes into the empty carry, until it gets at
// least one or the source reports EOF.
func (s *Scanner) readCarry(n int) error {
	s.carry = slices.Grow(s.carry, n)
	for !s.eof && len(s.carry) == 0 {
		k, err := s.r.Read(s.carry[:n])
		s.carry = s.carry[:k]
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return err
		}
	}
	return nil
}

// last reports whether the fragment Next returned last ends the stream:
// the next call returns io.EOF.
func (s *Scanner) last() bool { return s.done }

// readWhole reads r to EOF into one buffer sized up front when r can say
// how many bytes it holds — an in-memory reader's or the nfs stream's Len,
// a file's size past its offset — and grows it only if r held more.
func readWhole(r io.Reader) ([]byte, error) {
	var n int64
	switch in := r.(type) {
	case interface{ Len() int }:
		n = int64(in.Len())
	case interface {
		Stat() (fs.FileInfo, error)
		io.Seeker
	}:
		fi, err := in.Stat()
		off, serr := in.Seek(0, io.SeekCurrent)
		if err == nil && serr == nil {
			n = fi.Size() - off
		}
	}
	// One byte of room past the hint lets the read that reports EOF land
	// without growing the buffer (as os.ReadFile does).
	data := make([]byte, 0, max(n, 0)+1)
	for {
		k, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+k]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// Split partitions an in-memory byte slice, returning all fragments at
// once. It is a convenience for tests and small inputs; large inputs should
// stream through a Scanner.
//
//mcsdlint:allow deadexport -- reference splitter the partition fuzz and property tests, and other packages' tests, compare the streaming Scanner against
func Split(data []byte, opts Options) ([][]byte, error) {
	s := NewScanner(bytes.NewReader(data), opts)
	var out [][]byte
	for {
		frag, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, frag)
	}
}

// integrityDisplacement is the integrity check of Fig. 7: the extra
// displacement past the draft boundary pos of data at which the fragment
// ends — one past the first delimiter at or after index pos-1, or 0 when
// data[pos-1] already ends a record. ok is false when data holds no such
// delimiter (the record runs past the end of data). A boundary at 0 or at
// len(data) needs no fix.
func integrityDisplacement(data []byte, pos int, isDel *[256]bool) (extra int, ok bool) {
	if pos <= 0 || pos >= len(data) {
		return 0, pos == 0 || pos == len(data)
	}
	if isDel[data[pos-1]] {
		return 0, true
	}
	for i := pos; i < len(data); i++ {
		extra++
		if isDel[data[i]] {
			return extra, true
		}
	}
	return extra, false
}
