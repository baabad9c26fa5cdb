package workloads

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// benchCorpus is the engine benches' 4 MiB Zipf text.
func benchCorpus(b *testing.B) []byte {
	b.Helper()
	return GenerateTextBytes(4<<20, 1)
}

// BenchmarkWordCountTokenize is the word-count kernel's tokenizer alone —
// wcTable.count with no table — the floor under BenchmarkWordCountMap. Run
// it at -cpu 1.
func BenchmarkWordCountTokenize(b *testing.B) {
	input := benchCorpus(b)
	var none *wcTable
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		none.count(input)
	}
}

// BenchmarkWordCountMap is the whole map kernel — tokenizer and counting
// table, one emit per distinct word — without the engine around it.
func BenchmarkWordCountMap(b *testing.B) {
	input := benchCorpus(b)
	mapFn := WordCountSpec().Map
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	distinct := 0
	for range b.N {
		_ = mapFn(input, func(string, int) { distinct++ })
	}
	if distinct == 0 {
		b.Fatal("no words")
	}
}

// collect flushes t into a map, failing on a word emitted twice.
func collect(t *testing.T, tbl *wcTable) map[string]int {
	t.Helper()
	got := make(map[string]int)
	tbl.flush(func(w string, n int) {
		if _, dup := got[w]; dup {
			t.Fatalf("word %q emitted twice", w)
		}
		got[w] = n
	})
	return got
}

// TestWordTableForcedCollisions counts several grows' worth of keys —
// inline, long, sharing their low key word, or equal but for a trailing
// zero byte — into a fresh table, first with real hashes (each grow must
// rehash every key to where its lookups go) and then with every key sent
// to one slot, so each lookup walks one long probe chain resolved by the
// in-slot compares alone. Flush must leave the table empty and reusable.
func TestWordTableForcedCollisions(t *testing.T) {
	defer func() { testForceHash = false }()
	long := strings.Repeat("L", 17) // past the inline limit
	var text bytes.Buffer
	for i := range 3 * wcInitSlots {
		k := fmt.Sprintf("k%d", i)
		var words []string
		switch i % 4 {
		case 0:
			words = []string{long + k}
		case 1:
			words = []string{"8bytes__" + k} // equal low key words
		case 2:
			words = []string{k, k + "\x00"} // equal key words, lengths apart
		default:
			words = []string{k}
		}
		for range i%3 + 1 {
			for _, w := range words {
				text.WriteString(w + " ")
			}
		}
	}
	want := WordCountSeq(text.Bytes())
	for _, forced := range []bool{false, true} {
		testForceHash = forced
		tbl := newWCTable()
		tbl.count(text.Bytes())
		if len(tbl.slots) <= wcInitSlots {
			t.Fatalf("forced=%v: table has %d slots after %d keys, want it grown", forced, len(tbl.slots), len(want))
		}
		if got := collect(t, tbl); !maps.Equal(got, want) {
			t.Fatalf("forced=%v: counts differ from WordCountSeq (%d vs %d words)", forced, len(got), len(want))
		}
		if got := collect(t, tbl); len(got) != 0 {
			t.Fatalf("forced=%v: flushed table emitted %d words again", forced, len(got))
		}
	}
	// The first key sits in slot 0, where the second's first-probe
	// compare lands: every key word and the length must take part.
	tbl := newWCTable()
	for _, pair := range [][2]string{
		{"8bytes__a", "8bytes__b"},
		{"abc", "abd"},
		{"k2", "k2\x00"},
		{"k2\x00", "k2"},
		{long + "a", long + "b"},
	} {
		tbl.count([]byte(pair[0] + " " + pair[1] + " " + pair[1] + " " + strings.Repeat("p", 16)))
		want := map[string]int{pair[0]: 1, pair[1]: 2, strings.Repeat("p", 16): 1}
		if got := collect(t, tbl); !maps.Equal(got, want) {
			t.Fatalf("counting %q then %q: %q, want %q", pair[0], pair[1], got, want)
		}
	}
}

// wordHash is the table's hash of one word.
func wordHash(w []byte) uint64 {
	if len(w) > wcInlineKey {
		return longHash(w)
	}
	lo, hi := loadKey(w)
	return shortHash(lo, hi, len(w))
}

// TestWordHashShortKeys exercises the inline hash at every length it
// covers and the maphash path just past it. Keys that share all but one
// byte with a base must still hash apart, as must the same byte repeated at
// different lengths and keys that differ only by trailing zero bytes (their
// key words are equal; only the length tells them apart). Each key also
// round-trips through count's in-place loads.
func TestWordHashShortKeys(t *testing.T) {
	seen := make(map[uint64]string)
	add := func(k string) {
		h := wordHash([]byte(k))
		if other, ok := seen[h]; ok && other != k {
			t.Fatalf("hash(%q) == hash(%q)", k, other)
		}
		seen[h] = k
		if k == "" || strings.ContainsFunc(k, func(r rune) bool { return r < 0x80 && asciiSpace[r] }) {
			return
		}
		// With 16 bytes past its end, each occurrence takes count's
		// two-load path; whatever separator follows, its key words must
		// be masked to the same key and spell it back exactly.
		tbl := newWCTable()
		tbl.count([]byte(k + "\t" + k + "\r" + k + " " + strings.Repeat("p", 16)))
		if got := collect(t, tbl); len(got) != 2 || got[k] != 3 {
			t.Fatalf("count(%q x3 + padding) = %q", k, got)
		}
	}
	for n := 0; n <= wcInlineKey+1; n++ {
		base := strings.Repeat("a", n)
		add(base)
		add(strings.Repeat("\x00", n))
		for i := range n {
			for _, c := range []byte{'b', 0, 0xff} {
				k := []byte(base)
				k[i] = c
				add(string(k))
			}
		}
		add(strings.Repeat("ab", n)[:n]) // shared prefix with the next length
	}
	// Shared suffixes: the high word of a longer key repeats a shorter one.
	for n := 1; n <= wcInlineKey+1; n++ {
		add("x" + strings.Repeat("z", n))
	}
}

// TestWordCountMapEmitsOncePerWord pins the kernel's output shape: one pair
// per distinct word, carrying its count, in first-seen order.
func TestWordCountMapEmitsOncePerWord(t *testing.T) {
	var got []string
	err := WordCountSpec().Map([]byte("b a b\tc\na b "), func(w string, n int) {
		got = append(got, fmt.Sprintf("%s=%d", w, n))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"b=3", "a=2", "c=1"}; !slices.Equal(got, want) {
		t.Fatalf("Map emitted %q, want %q", got, want)
	}
}
