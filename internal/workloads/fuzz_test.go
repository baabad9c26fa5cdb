package workloads

import (
	"maps"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSalesLine asserts the CSV row parser never panics and accepts
// exactly well-formed rows.
func FuzzParseSalesLine(f *testing.F) {
	f.Add([]byte("north,disk,3,5.00"))
	f.Add([]byte(""))
	f.Add([]byte(",,,"))
	f.Add([]byte("a,b,99999999999999999999,1"))
	f.Add([]byte("a,b,1,NaN"))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := ParseSalesLine(line)
		if err != nil {
			return
		}
		if rec.Region == "" && rec.Product == "" && rec.Quantity == 0 && rec.Price == 0 {
			// A parseable line has at least the numeric fields set; the
			// string fields may legitimately be empty only if the input
			// had empty columns.
			return
		}
	})
}

// FuzzWordCountSeq asserts the sequential baseline never panics and counts
// exactly one word per word start: a byte outside asciiSpace that begins
// the data or follows an asciiSpace byte.
func FuzzWordCountSeq(f *testing.F) {
	f.Add([]byte("a b c a"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\xff unicode \xe2\x98\x83"))
	f.Fuzz(func(t *testing.T, data []byte) {
		starts := 0
		for i, c := range data {
			if !asciiSpace[c] && (i == 0 || asciiSpace[data[i-1]]) {
				starts++
			}
		}
		total := 0
		for _, c := range WordCountSeq(data) {
			if c <= 0 {
				t.Fatal("non-positive count")
			}
			total += c
		}
		if total != starts {
			t.Fatalf("data %q: %d words counted, %d word starts", data, total, starts)
		}
	})
}

// FuzzWordCountMap checks the word-count map kernel against WordCountSeq
// on arbitrary bytes: every distinct word emitted exactly once, with its
// count. The seeds sit on the kernel's edges — keys around the 16-byte
// inline limit, words ending on the chunk's last bytes (its tail loads),
// bytes below 0x21 that are not separators, DEL and high bytes, and every
// separator.
func FuzzWordCountMap(f *testing.F) {
	for _, seed := range []string{
		"",
		"a",
		"  \t\n\r\v\f  ",
		"a\vb\fc\rd\te\nf g",
		"x  \t\t\n\n  y\r\n\r\nx",
		"fifteen-bytes-w sixteen-bytes-wd seventeen-bytes-w",
		"abcdefghijklmnopq abcdefghijklmnop abcdefghijklmnopq abcdefghijklmno",
		"abcdefghijklmnop",
		"abcdefghij\tabcdefghij abcdefghij\rabcdefgh\tabcdefgh\vabcdefgh zzzzzzzzzzzzzzzzz",
		"abcdefghijklmnopq",
		"0123456789abcdef0123 w",
		"a b c d e f g h i j k l m n o p q r s tail",
		"a\x00b \x01\x1fc\x7f d\x80\xff e \x00\x00\x00",
		"alpha beta gamma\u0085delta epsilon\u00a0zeta",
		"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0\xef",
	} {
		f.Add([]byte(seed))
	}
	mapFn := WordCountSpec().Map
	f.Fuzz(func(t *testing.T, data []byte) {
		got := make(map[string]int)
		err := mapFn(data, func(w string, n int) {
			if _, dup := got[w]; dup {
				t.Fatalf("data %q: word %q emitted twice", data, w)
			}
			got[w] = n
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := WordCountSeq(data); !maps.Equal(got, want) {
			t.Fatalf("data %q: Map = %v, WordCountSeq = %v", data, got, want)
		}
	})
}

// FuzzStringMatchMap checks Map against StringMatchSeq on arbitrary chunks
// and up to two arbitrary keys.
func FuzzStringMatchMap(f *testing.F) {
	f.Add("ab--ab\n\nxab", "ab", "b")
	f.Add("ab\r\nxx\r\nab", "\r", "")
	f.Add("", "a", "a")
	f.Add("a\nb\n", "a\nb", "\n")
	f.Fuzz(func(t *testing.T, data, k1, k2 string) {
		keys := []string{k1, k2}
		got := mapByKey(t, keys, []byte(data))
		if want := seqByKey(keys, []byte(data)); !reflect.DeepEqual(got, want) {
			t.Fatalf("data %q keys %q: Map = %q, StringMatchSeq = %q",
				data, strings.Join(keys, "|"), got, want)
		}
	})
}
