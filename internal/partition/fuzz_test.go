package partition

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSplit asserts the partitioner's contract on arbitrary inputs: no
// panic, fragments reassemble exactly, no empty fragments, and every
// non-final fragment ends at a delimiter.
func FuzzSplit(f *testing.F) {
	f.Add([]byte("hello world foo bar"), int64(5))
	f.Add([]byte(""), int64(3))
	f.Add([]byte("nodershere"), int64(2))
	f.Add([]byte(" \n\t\r "), int64(1))
	f.Add(bytes.Repeat([]byte("a b "), 100), int64(7))

	f.Fuzz(func(t *testing.T, data []byte, fragSize int64) {
		if fragSize > int64(len(data))+10 {
			fragSize = int64(len(data)) + 10
		}
		frags, err := Split(data, Options{FragmentSize: fragSize})
		if err != nil {
			return // only ErrScanLimit-style failures, none configured here
		}
		var joined []byte
		for i, fr := range frags {
			if len(fr) == 0 {
				t.Fatalf("fragment %d is empty", i)
			}
			joined = append(joined, fr...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("fragments do not reassemble: %d bytes vs %d", len(joined), len(data))
		}
		if fragSize > 0 {
			for i, fr := range frags {
				if i == len(frags)-1 {
					continue
				}
				last := fr[len(fr)-1]
				if last != ' ' && last != '\n' && last != '\r' && last != '\t' {
					t.Fatalf("fragment %d ends mid-record with %q", i, last)
				}
			}
		}
	})
}

// FuzzSplitShortReads drives the scanner through a fuzzed reader shape
// (whole, one-byte, half and data-with-EOF reads) and asserts its fragments,
// or its ErrScanLimit, equal the reference cut of the whole input.
func FuzzSplitShortReads(f *testing.F) {
	f.Add([]byte("hello world foo bar"), int64(5), int64(0), uint8(1))
	f.Add([]byte("nodershere at all"), int64(2), int64(3), uint8(2))
	f.Add(bytes.Repeat([]byte("abc\n"), 50), int64(7), int64(4), uint8(4))
	f.Add(bytes.Repeat([]byte("x"), 300), int64(1), int64(0), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, fragSize, maxScan int64, mode uint8) {
		if fragSize <= 0 {
			return // native mode has no cut to compare
		}
		fragSize = min(fragSize, int64(len(data))+10)
		maxScan = max(maxScan, 0) % 100
		opts := Options{FragmentSize: fragSize, MaxScan: maxScan}
		want, wantErr := referenceCut(data, opts)
		rd := shortReaders[int(mode)%len(shortReaders)]
		got, err := scanAll(rd.wrap(bytes.NewReader(data)), opts)
		if wantErr != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("%s: err = %v, want %v", rd.name, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d fragments, reference %d", rd.name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: fragment %d = %q, reference %q", rd.name, i, got[i], want[i])
			}
		}
	})
}

// FuzzIntegrityDisplacement asserts the Fig. 7 pure function never panics
// and the returned displacement lands one past a delimiter (or EOF).
func FuzzIntegrityDisplacement(f *testing.F) {
	f.Add([]byte("hello world"), 3)
	f.Add([]byte(""), 0)
	f.Add([]byte("x"), 5)
	f.Fuzz(func(t *testing.T, data []byte, pos int) {
		extra, ok := integrityDisplacement(data, pos, Options{}.delimTable())
		if extra < 0 {
			t.Fatalf("negative displacement %d", extra)
		}
		if ok && pos > 0 && pos < len(data) && extra > 0 {
			end := pos + extra
			if end > len(data) {
				t.Fatalf("displacement %d runs past EOF", extra)
			}
			b := data[end-1]
			if b != ' ' && b != '\n' && b != '\r' && b != '\t' {
				t.Fatalf("displacement lands on %q, not a delimiter", b)
			}
		}
	})
}
