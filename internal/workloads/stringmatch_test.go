package workloads

import (
	"reflect"
	"testing"
)

// mapByKey runs the string-match Map over one chunk and groups the emitted
// lines by key, in emission order.
func mapByKey(t *testing.T, keys []string, chunk []byte) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	if err := StringMatchSpec(keys).Map(chunk, func(k, line string) {
		got[k] = append(got[k], line)
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// seqByKey groups StringMatchSeq's hits by key, in input order.
func seqByKey(keys []string, data []byte) map[string][]string {
	want := make(map[string][]string)
	for _, m := range StringMatchSeq(data, keys) {
		want[m.Key] = append(want[m.Key], m.Line)
	}
	return want
}

// TestStringMatchMapMatchesSeq pins the key-major sweep to the line-wise
// baseline on the cases where widening a hit to its line can go wrong.
func TestStringMatchMapMatchesSeq(t *testing.T) {
	cases := []struct {
		name string
		keys []string
		data string
	}{
		{"hit at first byte", []string{"ab"}, "abxx\nyy\n"},
		{"hit at last byte", []string{"yz"}, "xx\nxyz"},
		{"final line without newline", []string{"k"}, "k1\nno\nk2"},
		{"two hits on one line", []string{"ab"}, "ab--ab\nab\n"},
		{"key inside another key", []string{"abc", "b"}, "xabcx\nb\nabd\n"},
		{"crlf line endings", []string{"ab", "\r"}, "ab\r\nxx\r\nab"},
		{"empty lines", []string{"a"}, "\n\na\n\n\na\n"},
		{"empty key", []string{""}, "a\n\nb\n"},
		{"duplicate key", []string{"a", "a"}, "a\nb\naa\n"},
		{"key with newline never matches", []string{"a\nb", "b"}, "a\nb\n"},
		{"no hits", []string{"zz"}, "abc\ndef\n"},
		{"empty chunk", []string{"a"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := mapByKey(t, c.keys, []byte(c.data))
			if want := seqByKey(c.keys, []byte(c.data)); !reflect.DeepEqual(got, want) {
				t.Fatalf("Map = %q, StringMatchSeq = %q", got, want)
			}
		})
	}
}

// TestStringMatchMapGeneratedCorpus compares the two on the benchmark's
// generated corpus, where every key hits many lines.
func TestStringMatchMapGeneratedCorpus(t *testing.T) {
	keys := GenerateKeys(8, 5)
	data := GenerateEncryptBytes(200_000, 6, keys, 0.2)
	got, want := mapByKey(t, keys, data), seqByKey(keys, data)
	if len(want) != len(keys) {
		t.Fatalf("corpus hit %d of %d keys; want every key hit", len(want), len(keys))
	}
	if !reflect.DeepEqual(got, want) {
		for _, k := range keys {
			if g, w := got[k], want[k]; !reflect.DeepEqual(g, w) {
				t.Fatalf("key %q: Map found %d lines, StringMatchSeq %d", k, len(g), len(w))
			}
		}
		t.Fatal("Map and StringMatchSeq disagree")
	}
}
