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
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

func (o Options) delims() []byte {
	if len(o.Delimiters) == 0 {
		return DefaultDelimiters
	}
	return o.Delimiters
}

// ErrScanLimit reports an integrity check that ran past MaxScan without
// finding a delimiter — the input is not partition-able at this size.
var ErrScanLimit = errors.New("partition: no delimiter within MaxScan of fragment boundary")

// Scanner yields fragments of a stream, one at a time, so a run holds only
// the fragments in flight, never the whole stream — the property that lets
// McSD process data sets larger than the storage node's memory.
type Scanner struct {
	r      *bufio.Reader
	opts   Options
	isDel  [256]bool
	done   bool
	serial int
}

// NewScanner returns a scanner over r with the given options.
func NewScanner(r io.Reader, opts Options) *Scanner {
	s := &Scanner{r: bufio.NewReaderSize(r, 256<<10), opts: opts}
	for _, d := range opts.delims() {
		s.isDel[d] = true
	}
	return s
}

// Next returns the next fragment, or io.EOF after the last one. The
// returned slice is freshly allocated and owned by the caller.
func (s *Scanner) Next() ([]byte, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.opts.FragmentSize <= 0 {
		// Native mode: the whole remaining stream is one fragment.
		data, err := io.ReadAll(s.r)
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

	buf := make([]byte, s.opts.FragmentSize)
	n, err := io.ReadFull(s.r, buf)
	if err == io.EOF {
		s.done = true
		return nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		// Short final fragment.
		s.done = true
		s.serial++
		return buf[:n], nil
	}
	if err != nil {
		return nil, fmt.Errorf("partition: reading fragment: %w", err)
	}

	// Integrity check (Fig. 7): starting at the draft boundary, advance
	// byte by byte until a delimiter ends the record, then cut after it.
	if s.isDel[buf[n-1]] {
		s.serial++
		return buf, nil
	}
	var extra int64
	for {
		b, err := s.r.ReadByte()
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("partition: integrity check: %w", err)
		}
		buf = append(buf, b)
		extra++
		if s.isDel[b] {
			break
		}
		if s.opts.MaxScan > 0 && extra >= s.opts.MaxScan {
			return nil, fmt.Errorf("%w (scanned %d bytes)", ErrScanLimit, extra)
		}
	}
	s.serial++
	return buf, nil
}

// Fragments reports how many fragments have been returned so far.
func (s *Scanner) Fragments() int { return s.serial }

// Split partitions an in-memory byte slice, returning all fragments at
// once. It is a convenience for tests and small inputs; large inputs should
// stream through a Scanner.
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

// IntegrityDisplacement returns the extra displacement the integrity check
// would add at the given draft boundary of data: the distance to one past
// the first delimiter at or after pos-1's successor. It mirrors Fig. 7 as a
// pure function for direct testing. ok is false when no delimiter exists
// before EOF (the fragment extends to EOF).
func IntegrityDisplacement(data []byte, pos int, delims []byte) (extra int, ok bool) {
	if len(delims) == 0 {
		delims = DefaultDelimiters
	}
	var isDel [256]bool
	for _, d := range delims {
		isDel[d] = true
	}
	if pos <= 0 || pos >= len(data) {
		// Nothing before the boundary to fix, or the boundary is at EOF:
		// either way the fragment ends legitimately.
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
