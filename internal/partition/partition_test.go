package partition

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func joinFrags(frags [][]byte) []byte {
	var out []byte
	for _, f := range frags {
		out = append(out, f...)
	}
	return out
}

func TestSplitBasic(t *testing.T) {
	data := []byte("alpha beta gamma delta epsilon")
	frags, err := Split(data, Options{FragmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("got %d fragments, want several", len(frags))
	}
	if !bytes.Equal(joinFrags(frags), data) {
		t.Fatal("fragments do not reassemble to input")
	}
	for i, f := range frags[:len(frags)-1] {
		if f[len(f)-1] != ' ' {
			t.Fatalf("fragment %d %q does not end at a delimiter", i, f)
		}
		if len(f) < 8 {
			t.Fatalf("fragment %d shorter than draft size: %d", i, len(f))
		}
	}
}

func TestSplitNativeMode(t *testing.T) {
	data := []byte("whole input as one fragment")
	for _, size := range []int64{0, -1} {
		frags, err := Split(data, Options{FragmentSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if len(frags) != 1 || !bytes.Equal(frags[0], data) {
			t.Fatalf("native mode with size %d gave %d fragments", size, len(frags))
		}
	}
}

// TestNativeFragmentSizedUpFront: a native fragment is read into one
// buffer sized from what the input reports — an in-memory reader's Len, a
// file's size past its offset — plus one byte for the read that reports
// EOF, never grown by doubling. An input that reports nothing still reads
// whole.
func TestNativeFragmentSizedUpFront(t *testing.T) {
	data := bytes.Repeat([]byte("native fragment "), 4096)
	path := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		r     io.Reader
		want  []byte
		sized bool
	}{
		{"bytes.Reader", bytes.NewReader(data), data, true},
		{"file past its offset", f, data[100:], true},
		{"unsized", iotest.HalfReader(bytes.NewReader(data)), data, false},
	} {
		frag, err := NewScanner(tc.r, Options{}).Next()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(frag, tc.want) {
			t.Fatalf("%s: native fragment of %d bytes, want the %d-byte input", tc.name, len(frag), len(tc.want))
		}
		if tc.sized && cap(frag) != len(frag)+1 {
			t.Errorf("%s: native fragment buffer has capacity %d for %d bytes, want %d", tc.name, cap(frag), len(frag), len(frag)+1)
		}
	}
}

func TestSplitEmptyInput(t *testing.T) {
	for _, size := range []int64{0, 8} {
		frags, err := Split(nil, Options{FragmentSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if len(frags) != 0 {
			t.Fatalf("empty input gave %d fragments", len(frags))
		}
	}
}

func TestSplitExactMultiple(t *testing.T) {
	// Input ends exactly at a fragment boundary on a delimiter.
	data := []byte("ab cd ef ") // 9 bytes
	frags, err := Split(data, Options{FragmentSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	if !bytes.Equal(joinFrags(frags), data) {
		t.Fatal("fragments do not reassemble")
	}
}

func TestSplitNoDelimiterExtendsToEOF(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 100)
	frags, err := Split(data, Options{FragmentSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || len(frags[0]) != 100 {
		t.Fatalf("undelimited input: got %d fragments (first %d bytes), want 1 of 100",
			len(frags), len(frags[0]))
	}
}

func TestSplitMaxScanEnforced(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 1000)
	_, err := Split(data, Options{FragmentSize: 10, MaxScan: 50})
	if !errors.Is(err, ErrScanLimit) {
		t.Fatalf("err = %v, want ErrScanLimit", err)
	}
}

func TestSplitCustomDelimiter(t *testing.T) {
	// "the symbol defined by the programmer" (Fig. 7).
	data := []byte("rec1;rec2;rec3;rec4;")
	frags, err := Split(data, Options{FragmentSize: 6, Delimiters: []byte{';'}})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frags[:len(frags)-1] {
		if f[len(f)-1] != ';' {
			t.Fatalf("fragment %d %q does not end at ';'", i, f)
		}
	}
	if !bytes.Equal(joinFrags(frags), data) {
		t.Fatal("fragments do not reassemble")
	}
}

func TestScannerFragmentsCount(t *testing.T) {
	sc := NewScanner(strings.NewReader("aa bb cc dd"), Options{FragmentSize: 4})
	n := 0
	for {
		_, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if sc.serial != n {
		t.Fatalf("Fragments() = %d, want %d", sc.serial, n)
	}
	// Next after EOF keeps returning EOF.
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next err = %v, want io.EOF", err)
	}
}

func TestIntegrityDisplacement(t *testing.T) {
	data := []byte("hello world")
	isDel := Options{}.delimTable()
	// Boundary at 3 (inside "hello"): scan h-e-l-l-o -> space at index 5;
	// extra displacement = 3 (indices 3,4,5).
	extra, ok := integrityDisplacement(data, 3, isDel)
	if !ok || extra != 3 {
		t.Fatalf("displacement = (%d,%v), want (3,true)", extra, ok)
	}
	// Boundary right after the space: record already ended.
	extra, ok = integrityDisplacement(data, 6, isDel)
	if !ok || extra != 0 {
		t.Fatalf("displacement at clean boundary = (%d,%v), want (0,true)", extra, ok)
	}
	// Boundary inside the final word: no delimiter before EOF.
	extra, ok = integrityDisplacement(data, 8, isDel)
	if ok || extra != 3 {
		t.Fatalf("displacement near EOF = (%d,%v), want (3,false)", extra, ok)
	}
	// Boundary exactly at EOF.
	if _, ok := integrityDisplacement(data, len(data), isDel); !ok {
		t.Fatal("boundary at EOF should be ok")
	}
}

// Property: for any word soup and any fragment size, fragments reassemble
// exactly and every non-final fragment ends at a delimiter — "the content
// of the source data file could be broken in shatters" never happens.
func TestSplitNeverTearsWordsProperty(t *testing.T) {
	prop := func(words []string, size uint8) bool {
		var b bytes.Buffer
		for _, w := range words {
			for _, ch := range []byte(w) {
				if ch != ' ' && ch != '\n' && ch != '\r' && ch != '\t' {
					b.WriteByte(ch)
				}
			}
			b.WriteByte(' ')
		}
		data := b.Bytes()
		frags, err := Split(data, Options{FragmentSize: int64(size)%50 + 1})
		if err != nil {
			return false
		}
		if !bytes.Equal(joinFrags(frags), data) {
			return false
		}
		for i, f := range frags {
			if len(f) == 0 {
				return false
			}
			if i == len(frags)-1 {
				continue
			}
			last := f[len(f)-1]
			if last != ' ' && last != '\n' && last != '\r' && last != '\t' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: word multiset is preserved — counting words per fragment and
// summing equals counting over the whole input.
func TestSplitPreservesWordMultisetProperty(t *testing.T) {
	prop := func(seed []string, size uint8) bool {
		text := strings.Join(seed, " ") + " "
		frags, err := Split([]byte(text), Options{FragmentSize: int64(size)%40 + 1})
		if err != nil {
			return false
		}
		whole := make(map[string]int)
		for _, w := range strings.Fields(text) {
			whole[w]++
		}
		parts := make(map[string]int)
		for _, f := range frags {
			for _, w := range strings.Fields(string(f)) {
				parts[w]++
			}
		}
		if len(whole) != len(parts) {
			return false
		}
		for k, v := range whole {
			if parts[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceCut is the fragmentation every Scanner must reproduce, computed
// over the whole input at once with integrityDisplacement: a fragment of
// at most FragmentSize bytes runs to EOF, a longer remainder is cut at the
// integrity check's displacement, and a record that ends past MaxScan (or
// reaches EOF after MaxScan undelimited bytes) is ErrScanLimit.
func referenceCut(data []byte, opts Options) ([][]byte, error) {
	size, isDel := int(opts.FragmentSize), opts.delimTable()
	var out [][]byte
	for len(data) > 0 {
		if len(data) <= size {
			return append(out, data), nil
		}
		extra, ok := integrityDisplacement(data, size, isDel)
		if limit := int(opts.MaxScan); limit > 0 && (extra > limit || !ok && extra >= limit) {
			return nil, ErrScanLimit
		}
		out = append(out, data[:size+extra])
		data = data[size+extra:]
	}
	return out, nil
}

// scanAll drains a Scanner over r.
func scanAll(r io.Reader, opts Options) ([][]byte, error) {
	sc := NewScanner(r, opts)
	var out [][]byte
	for {
		frag, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, frag)
	}
}

// shortReaders wraps a source in each reader shape the scanner must
// tolerate: whole reads, one byte per Read, half of each request, and the
// final bytes arriving together with io.EOF.
var shortReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
	{"one-byte-data-err", func(r io.Reader) io.Reader { return iotest.DataErrReader(iotest.OneByteReader(r)) }},
}

// checkAgainstReference scans data through every short reader and compares
// the fragments (or the ErrScanLimit) with referenceCut.
func checkAgainstReference(t *testing.T, data []byte, opts Options) {
	t.Helper()
	want, wantErr := referenceCut(data, opts)
	for _, rd := range shortReaders {
		got, err := scanAll(rd.wrap(bytes.NewReader(data)), opts)
		if wantErr != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("%s, size %d, max scan %d: err = %v, want %v", rd.name, opts.FragmentSize, opts.MaxScan, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s, size %d: %v", rd.name, opts.FragmentSize, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s, size %d: %d fragments, reference %d", rd.name, opts.FragmentSize, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s, size %d: fragment %d is %d bytes, reference %d", rd.name, opts.FragmentSize, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestScannerMatchesReferenceCut drives the read path over short reads at
// fragment sizes of 1 byte, below the 64 KiB spare room, equal to it and
// above it. The input holds a 150 KB undelimited record, longer than the
// spare room at every size, so every size also takes the growth path.
func TestScannerMatchesReferenceCut(t *testing.T) {
	var b bytes.Buffer
	for i := 0; b.Len() < 200<<10; i++ {
		fmt.Fprintf(&b, "w%d%s", i, strings.Repeat("x", i%13))
		b.WriteByte(" \n\t\r"[i%4])
	}
	b.WriteString(strings.Repeat("y", 150<<10))
	b.WriteString(" tail words\nend")
	data := b.Bytes()
	for _, size := range []int64{1, 1000, 64 << 10, 64<<10 + 1000} {
		input := data
		if size == 1 {
			input = data[:8<<10] // a fragment per word: keep it short
		}
		checkAgainstReference(t, input, Options{FragmentSize: size})
	}
	// The long record also tears a fragment at the start of a buffer
	// whose head is bytes carried over from the last cut.
	checkAgainstReference(t, data, Options{FragmentSize: 7, Delimiters: []byte{'\n'}})
}

// TestScannerMaxScanBoundary pins MaxScan's meaning on every read path: a
// delimiter at displacement exactly MaxScan is accepted, one byte further
// is ErrScanLimit, and so is EOF after MaxScan undelimited bytes.
func TestScannerMaxScanBoundary(t *testing.T) {
	const size, maxScan = 10, 50 // MaxScan spans several spare-room reads
	record := func(displacement int) []byte {
		// The draft boundary falls inside a record whose delimiter sits
		// at the given displacement past it.
		data := bytes.Repeat([]byte("x"), size+displacement-1)
		return append(data, []byte(" after the cut\n")...)
	}
	opts := Options{FragmentSize: size, MaxScan: maxScan}
	for _, rd := range shortReaders {
		frags, err := scanAll(rd.wrap(bytes.NewReader(record(maxScan))), opts)
		if err != nil {
			t.Fatalf("%s: delimiter at MaxScan: %v", rd.name, err)
		}
		if len(frags[0]) != size+maxScan {
			t.Fatalf("%s: first fragment %d bytes, want %d", rd.name, len(frags[0]), size+maxScan)
		}
		if _, err := scanAll(rd.wrap(bytes.NewReader(record(maxScan+1))), opts); !errors.Is(err, ErrScanLimit) {
			t.Fatalf("%s: delimiter at MaxScan+1: err = %v, want ErrScanLimit", rd.name, err)
		}
	}
	checkAgainstReference(t, record(maxScan), opts)
	checkAgainstReference(t, record(maxScan+1), opts)
	checkAgainstReference(t, bytes.Repeat([]byte("x"), size+maxScan), opts)   // EOF at MaxScan
	checkAgainstReference(t, bytes.Repeat([]byte("x"), size+maxScan-1), opts) // EOF inside it
}

// TestScannerTailReadErrorSurfaces: a reader that fails while the
// integrity check reads past the draft boundary must fail the scan, not
// end the stream with a short fragment.
func TestScannerTailReadErrorSurfaces(t *testing.T) {
	boom := errors.New("disk gone")
	for _, rd := range shortReaders {
		// The draft fragment fills, ends mid-record, and the next read
		// fails.
		r := io.MultiReader(rd.wrap(strings.NewReader("aaaa bbbbb")), iotest.ErrReader(boom))
		frags, err := scanAll(r, Options{FragmentSize: 8})
		if !errors.Is(err, boom) {
			t.Fatalf("%s: got %q, err %v; want the reader's error", rd.name, frags, err)
		}
	}
}

// TestScannerErrorPastWholeFragment: when a cut falls on the last byte
// read, the read that asks whether the stream ends there must not cost the
// whole fragment its delivery: its error comes from the next call.
func TestScannerErrorPastWholeFragment(t *testing.T) {
	boom := errors.New("disk gone")
	// The integrity check's one-byte tail read ends on the cut.
	in := io.MultiReader(iotest.OneByteReader(strings.NewReader("aaaa ")), iotest.ErrReader(boom))
	sc := NewScanner(in, Options{FragmentSize: 4})
	frag, err := sc.Next()
	if err != nil || string(frag) != "aaaa " {
		t.Fatalf("got %q, err %v; want %q", frag, err, "aaaa ")
	}
	if sc.last() {
		t.Fatal("the fragment says it ends the stream")
	}
	if _, err := sc.Next(); !errors.Is(err, boom) {
		t.Fatalf("got err %v; want the reader's error", err)
	}
}

// TestScannerKnowsLastFragment: the scanner must know, when it returns a
// fragment, whether it ends the stream — on every read shape, for a stream
// that ends on a cut, inside the integrity check's tail read (on a
// delimiter or not), or short of a full fragment.
func TestScannerKnowsLastFragment(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := [][]byte{
		[]byte(strings.Repeat("abc ", 16)),       // every cut on a draft boundary
		[]byte("aaaa bbbbbb "),                   // the tail read ends the stream on its delimiter
		[]byte("aaaa bbbbbb"),                    // the last record runs to EOF
		[]byte("aaaa bbbbbb c"),                  // a short fragment after the cut
		[]byte(strings.Repeat("abc ", 3) + "\n"), // a delimiter run past the boundary
	}
	for range 20 {
		inputs = append(inputs, randomText(rng, 1+rng.Intn(200)))
	}
	for _, data := range inputs {
		for _, size := range []int64{1, 4, 8, 13, 64} {
			for _, rd := range shortReaders {
				sc := NewScanner(rd.wrap(bytes.NewReader(data)), Options{FragmentSize: size})
				var lasts []bool
				for {
					_, err := sc.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					lasts = append(lasts, sc.last())
				}
				for i, last := range lasts {
					if last != (i == len(lasts)-1) {
						t.Fatalf("%s, %q at size %d: fragment %d of %d says last=%v", rd.name, data, size, i+1, len(lasts), last)
					}
				}
			}
		}
	}
}
