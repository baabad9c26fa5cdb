package partition

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// readRange runs a RangeReader over data[LeadIn(start):] for [start, end).
func readRange(t *testing.T, data []byte, start, end int64) []byte {
	t.Helper()
	rr, err := NewRangeReader(bytes.NewReader(data[LeadIn(start):]), start, end, nil)
	if err != nil {
		t.Fatalf("NewRangeReader(%d, %d): %v", start, end, err)
	}
	out, err := io.ReadAll(rr)
	if err != nil {
		t.Fatalf("range [%d,%d): %v", start, end, err)
	}
	return out
}

// TestRangeReaderTiles is the load-bearing property: cutting a stream at
// arbitrary byte offsets and concatenating each range's aligned view must
// reproduce the stream exactly — every byte served once, by exactly one
// range. This is what makes fleet scatter/gather lossless without any
// cross-node coordination.
func TestRangeReaderTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpora := [][]byte{
		[]byte("alpha beta gamma delta epsilon zeta eta theta"),
		[]byte("  leading  and   trailing   runs  \n\n of\tdelims \r\n"),
		[]byte("oneverylongwordwithnodelimitersatallanywhereinside"),
		[]byte("x"),
		[]byte(" "),
		randomText(rng, 10_000),
	}
	for ci, data := range corpora {
		for trial := 0; trial < 50; trial++ {
			cuts := randomCuts(rng, int64(len(data)))
			var got []byte
			for i := 0; i+1 < len(cuts); i++ {
				got = append(got, readRange(t, data, cuts[i], cuts[i+1])...)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("corpus %d cuts %v: reassembled %d bytes != original %d\n got: %q\nwant: %q",
					ci, cuts, len(got), len(data), got, data)
			}
		}
	}
}

// TestRangeReaderWordAligned checks each range's view is record-aligned.
// Splitting every range's output into words independently and
// concatenating must reproduce the whole-stream word sequence: a view that
// started or ended mid-word would tear that word into two fields and
// break the comparison.
func TestRangeReaderWordAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randomText(rng, 20_000)
	total := strings.Fields(string(data))
	for trial := 0; trial < 30; trial++ {
		cuts := randomCuts(rng, int64(len(data)))
		var words []string
		for i := 0; i+1 < len(cuts); i++ {
			part := readRange(t, data, cuts[i], cuts[i+1])
			words = append(words, strings.Fields(string(part))...)
		}
		if len(words) != len(total) {
			t.Fatalf("cuts %v: %d words across ranges, want %d", cuts, len(words), len(total))
		}
		for i := range words {
			if words[i] != total[i] {
				t.Fatalf("cuts %v: word %d = %q, want %q", cuts, i, words[i], total[i])
			}
		}
	}
}

func TestRangeReaderEdges(t *testing.T) {
	data := []byte("aa bb cc")
	cases := []struct {
		start, end int64
		want       string
	}{
		{0, 8, "aa bb cc"},   // whole stream
		{0, 1, "aa "},        // ends mid-word: extend through delimiter
		{1, 2, ""},           // starts mid-word, ends inside it: owns nothing
		{1, 4, "bb "},        // skip torn head, extend torn tail
		{3, 6, "bb "},        // starts at a word start (byte before is delim)
		{2, 3, ""},           // exactly the delimiter byte
		{6, 8, "cc"},         // final word, EOF ends it
		{0, 100, "aa bb cc"}, // end past EOF
		{8, 8, ""},           // empty range at EOF
		{0, 0, ""},           // empty range at start
	}
	for _, c := range cases {
		if got := string(readRange(t, data, c.start, c.end)); got != c.want {
			t.Errorf("range [%d,%d) = %q, want %q", c.start, c.end, got, c.want)
		}
	}
	if _, err := NewRangeReader(bytes.NewReader(nil), 5, 2, nil); err == nil {
		t.Error("inverted range accepted")
	}
}

// countedCloser is a range opened by a RangeChain test, tracking how many
// are open at once.
type countedCloser struct {
	io.Reader
	open *int
}

func (c *countedCloser) Close() error {
	*c.open--
	return nil
}

// TestRangeChainMatchesRangeViews chains random subsets of random cut sets:
// the stream must be the chosen ranges' aligned views back to back
// (adjacent ranges coalescing changes nothing), the ranges must open in
// order, never more than two at once, and all be closed at the end.
func TestRangeChainMatchesRangeViews(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := randomText(rng, 20_000)
	for trial := 0; trial < 200; trial++ {
		cuts := randomCuts(rng, int64(len(data)))
		var chosen [][2]int64
		var want []byte
		for i := 0; i+1 < len(cuts); i++ {
			if rng.Intn(3) == 0 {
				continue
			}
			chosen = append(chosen, [2]int64{cuts[i], cuts[i+1]})
			want = append(want, readRange(t, data, cuts[i], cuts[i+1])...)
		}
		open, maxOpen, last := 0, 0, int64(-1)
		rc, err := NewRangeChain(chosen, func(off, _ int64) (io.ReadCloser, error) {
			if off <= last {
				t.Fatalf("cuts %v: opened offset %d after %d", cuts, off, last)
			}
			last = off
			open++
			maxOpen = max(maxOpen, open)
			return &countedCloser{Reader: bytes.NewReader(data[off:]), open: &open}, nil
		})
		if err != nil {
			t.Fatalf("ranges %v: %v", chosen, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("ranges %v: %v", chosen, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ranges %v: chain served %q, views %q", chosen, got, want)
		}
		if maxOpen > 2 || open != 0 {
			t.Fatalf("ranges %v: %d open at once, %d left open", chosen, maxOpen, open)
		}
	}
}

func TestRangeChainRejectsDisorder(t *testing.T) {
	open := func(int64, int64) (io.ReadCloser, error) {
		t.Fatal("a rejected range list was opened")
		return nil, nil
	}
	for _, rs := range [][][2]int64{{{5, 2}}, {{-1, 3}}, {{0, 10}, {5, 20}}, {{10, 20}, {0, 5}}} {
		if _, err := NewRangeChain(rs, open); err == nil {
			t.Errorf("ranges %v accepted", rs)
		}
	}
}

func TestAlignedRanges(t *testing.T) {
	if got := AlignedRanges(0, 10); got != nil {
		t.Fatalf("empty input: %v", got)
	}
	if got := AlignedRanges(10, 0); len(got) != 1 || got[0] != [2]int64{0, 10} {
		t.Fatalf("native: %v", got)
	}
	got := AlignedRanges(25, 10)
	want := [][2]int64{{0, 10}, {10, 20}, {20, 25}}
	if len(got) != len(want) {
		t.Fatalf("AlignedRanges(25, 10) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AlignedRanges(25, 10)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func isDefaultDelim(b byte) bool {
	for _, d := range DefaultDelimiters {
		if b == d {
			return true
		}
	}
	return false
}

// randomText builds a corpus with word lengths 1-12 and delimiter runs 1-3.
func randomText(rng *rand.Rand, n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		for w := rng.Intn(12) + 1; w > 0; w-- {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		for d := rng.Intn(3) + 1; d > 0; d-- {
			b.WriteByte(DefaultDelimiters[rng.Intn(len(DefaultDelimiters))])
		}
	}
	return b.Bytes()[:n]
}

// randomCuts returns sorted offsets 0 = c0 < ... < ck = total, with
// duplicate interior cuts allowed occasionally to exercise empty ranges.
func randomCuts(rng *rand.Rand, total int64) []int64 {
	cuts := []int64{0, total}
	for i := rng.Intn(6); i > 0; i-- {
		cuts = append(cuts, rng.Int63n(total+1))
	}
	sortInt64(cuts)
	return cuts
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestRangeChainOpensNextOffReadPath: the range after the current one
// opens while the current one is read, so a slow open stalls no read that
// does not need its range; its error surfaces at the read that does, and
// Close waits for an open in flight and closes what it opened.
func TestRangeChainOpensNextOffReadPath(t *testing.T) {
	data := []byte("aaa --- bbb --- ccc --- ddd ")
	ranges := [][2]int64{{0, 4}, {8, 12}, {16, 20}, {24, 28}} // apart: no coalescing
	boom := errors.New("open failed")
	var open atomic.Int32
	// chain opens ranges over data, holding the open of offset slowOff
	// until release is closed and failing the one of offset failOff.
	chain := func(slowOff, failOff int64, release <-chan struct{}) *RangeChain {
		rc, err := NewRangeChain(ranges, func(off, _ int64) (io.ReadCloser, error) {
			if off == slowOff {
				<-release
			}
			if off == failOff {
				return nil, boom
			}
			open.Add(1)
			return closeFunc{bytes.NewReader(data[off:]), func() { open.Add(-1) }}, nil
		})
		if err != nil {
			panic(err) // the first range's open cannot fail here
		}
		return rc
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}

	// The second range's open is held: the chain still opens and its
	// first range still reads.
	release := make(chan struct{})
	var rc *RangeChain
	buf := make([]byte, 16)
	var n int
	within("a read of the first range during the second's open", func() {
		rc = chain(LeadIn(8), -1, release)
		n, _ = io.ReadFull(rc, buf[:4])
	})
	if string(buf[:n]) != "aaa " {
		t.Fatalf("first range read %q, want %q", buf[:n], "aaa ")
	}
	close(release)
	rest, err := io.ReadAll(rc)
	if err != nil || string(rest) != "bbb ccc ddd " {
		t.Fatalf("rest = %q, %v; want %q", rest, err, "bbb ccc ddd ")
	}
	rc.Close()

	// A failed open surfaces where its range is needed, not before.
	rc = chain(-1, LeadIn(16), nil)
	got, err := io.ReadAll(rc)
	if !errors.Is(err, boom) || string(got) != "aaa bbb " {
		t.Fatalf("read %q, err %v; want %q then the open's error", got, err, "aaa bbb ")
	}
	rc.Close()

	// Close waits for the open in flight and closes its range.
	release = make(chan struct{})
	rc = chain(LeadIn(8), -1, release)
	closed := make(chan struct{})
	go func() { defer close(closed); rc.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while an open was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	within("Close after the open", func() { <-closed })
	if k := open.Load(); k != 0 {
		t.Fatalf("%d ranges left open after Close", k)
	}
}

// closeFunc is a reader whose Close calls a function.
type closeFunc struct {
	io.Reader
	close func()
}

func (c closeFunc) Close() error {
	c.close()
	return nil
}
