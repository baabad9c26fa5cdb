package workloads

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"mcsd/internal/mapreduce"
	"mcsd/internal/partition"
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

// BenchmarkEngineWorkers runs the engine over one 4 MiB word-count
// fragment, as partition.Run hands it a fragment (no key order), on one
// worker and on two: the last fragment of a stream gets every worker of
// the pool, so two must beat one. Run it at -cpu 2 or more.
func BenchmarkEngineWorkers(b *testing.B) {
	input := benchCorpus(b)
	spec := WordCountSpec()
	spec.Less = nil
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			for range b.N {
				if _, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: workers}, spec, input); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// TestWordTableFold folds two tables whose keys overlap — inline keys,
// long ones, ones sharing a low key word or equal but for a trailing zero
// byte — first with real hashes and then with every key sent to one slot.
// The small table absorbs the large one, so the fold runs through several
// grows, and the result must be WordCountSeq of both inputs.
func TestWordTableFold(t *testing.T) {
	defer func() { testForceHash = false }()
	long := strings.Repeat("L", 17)
	var small, large bytes.Buffer
	for i := range 2 * wcInitSlots {
		k := fmt.Sprintf("k%d", i%(wcInitSlots/2))
		var words []string
		switch i % 4 {
		case 0:
			words = []string{long + k}
		case 1:
			words = []string{"8bytes__" + k}
		case 2:
			words = []string{k, k + "\x00"}
		default:
			words = []string{k}
		}
		for _, w := range words {
			if i < wcInitSlots/4 {
				small.WriteString(w + " ")
			}
			fmt.Fprintf(&large, "%s %s%d ", w, w, i)
		}
	}
	want := WordCountSeq(append(small.Bytes(), large.Bytes()...))
	for _, forced := range []bool{false, true} {
		testForceHash = forced
		a, b := newWCTable(), newWCTable()
		a.count(small.Bytes())
		b.count(large.Bytes())
		before := len(a.slots)
		a.absorb(b)
		if len(a.slots) < 4*before {
			t.Fatalf("forced=%v: fold grew %d slots to %d, want several grows", forced, before, len(a.slots))
		}
		if got := collect(t, a); !maps.Equal(got, want) {
			t.Fatalf("forced=%v: folded counts differ from WordCountSeq (%d vs %d words)", forced, len(got), len(want))
		}
	}
}

// countJob counts frags into a fresh job of tables tables, fragment i on
// table i mod tables, and returns its output with every word ranked and
// the pairs.
func countJob(t testing.TB, frags [][]byte, tables int) WordCountOutput {
	t.Helper()
	job := NewWordCountJob(tables)
	for i, frag := range frags {
		err := job.Count(context.Background(), partition.Fragment{Data: frag, Serial: i, Worker: i % tables, Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	return job.Output(0, true)
}

// checkJobOutput holds out to WordCountSeq's counts of data.
func checkJobOutput(t testing.TB, name string, out WordCountOutput, data []byte) {
	t.Helper()
	want := WordCountSeq(data)
	var total int64
	for _, n := range want {
		total += int64(n)
	}
	if out.TotalWords != total || out.UniqueWords != len(want) || len(out.Pairs) != len(want) {
		t.Fatalf("%s: %d words, %d unique, %d pairs; want %d, %d, %d",
			name, out.TotalWords, out.UniqueWords, len(out.Pairs), total, len(want), len(want))
	}
	for i, p := range out.Pairs {
		if i > 0 && out.Pairs[i-1].Word >= p.Word {
			t.Fatalf("%s: pairs not key-sorted at %d: %q then %q", name, i, out.Pairs[i-1].Word, p.Word)
		}
		if want[p.Word] != p.Count {
			t.Fatalf("%s: count[%q] = %d, want %d", name, p.Word, p.Count, want[p.Word])
		}
	}
	if len(out.Top) != len(want) {
		t.Fatalf("%s: top has %d words, want all %d", name, len(out.Top), len(want))
	}
	for i, w := range TopWords(want, 0) {
		if out.Top[i].Word != w.Key || out.Top[i].Count != w.Value {
			t.Fatalf("%s: top[%d] = %+v, want %s:%d", name, i, out.Top[i], w.Key, w.Value)
		}
	}
}

// TestWordCountJobSpreadsPoolOfOne hands a job one fragment with two
// cores, as a pool of one does: its tasks must count on both tables, and
// the fold must still give WordCountSeq's counts. A cancelled context
// must stop the count and be returned.
func TestWordCountJobSpreadsPoolOfOne(t *testing.T) {
	data := GenerateTextBytes(512<<10, 3)
	job := NewWordCountJob(2)
	if err := job.Count(context.Background(), partition.Fragment{Data: data, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	for w, tbl := range job.tables {
		if tbl == nil || len(tbl.order) == 0 {
			t.Fatalf("table %d counted nothing", w)
		}
	}
	out := job.Output(0, true)
	checkJobOutput(t, "pool of one", out, data)
	if out.FragmentKeys <= out.UniqueWords || out.FragmentKeys > 2*out.UniqueWords {
		t.Fatalf("FragmentKeys = %d, want within (%d, 2 × %d]", out.FragmentKeys, out.UniqueWords, out.UniqueWords)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cores := range []int{1, 2} {
		err := NewWordCountJob(2).Count(ctx, partition.Fragment{Data: data, Cores: cores})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cores=%d: cancelled count err = %v, want context.Canceled", cores, err)
		}
	}
}

// cutAtSpaces cuts data into fragments after the whitespace bytes that
// cuts selects: the k-th whitespace byte ends a fragment when bit k mod 64
// of cuts is set.
func cutAtSpaces(data []byte, cuts uint64) [][]byte {
	var frags [][]byte
	start, k := 0, 0
	for i, c := range data {
		if !asciiSpace[c] {
			continue
		}
		if cuts>>(k%64)&1 != 0 {
			frags = append(frags, data[start:i+1])
			start = i + 1
		}
		k++
	}
	return append(frags, data[start:])
}

// FuzzWordCountTables cuts arbitrary bytes at arbitrary whitespace into
// fragments, counts them over one to three tables and folds them: the
// output must be WordCountSeq's counts, in key order, ranked by TopWords.
func FuzzWordCountTables(f *testing.F) {
	f.Add([]byte("a b a\tc\nb a"), uint64(0b101), uint8(1))
	f.Add([]byte("fifteen-bytes-w sixteen-bytes-wd seventeen-bytes-w sixteen-bytes-wd"), ^uint64(0), uint8(2))
	f.Add([]byte("abcdefghijklmnopq x abcdefghijklmnopq\x00 x\vabcdefghijklmnopq"), uint64(0b10), uint8(0))
	f.Add([]byte("\xff\xfe k2 k2\x00 \x00\x00 tail"), uint64(0b111), uint8(2))
	f.Add([]byte(""), uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64, tables uint8) {
		out := countJob(t, cutAtSpaces(data, cuts), 1+int(tables%3))
		checkJobOutput(t, fmt.Sprintf("data %q cuts %b tables %d", data, cuts, 1+tables%3), out, data)
	})
}
