package workloads

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"mcsd/internal/mapreduce"
	"mcsd/internal/partition"
)

// WordCountFootprint is the memory footprint of word count as a multiple of
// its input: "the memory footprint of Word-Count is around three times of
// the input data size" (§V-C).
const WordCountFootprint = 3.0

// WordCountSpec returns the Word Count application of §V-A: Map counts the
// words of its chunk and emits one (word, count) pair per distinct word;
// Reduce sums; the final output is sorted so it can be "printed out in
// accordance with the frequency" — the spec sorts by key, and TopWords
// re-sorts by count for the report.
//
// A word is a maximal run of bytes outside asciiSpace. That one rule is
// shared by the kernel, the parallel engine, RunSequential and
// WordCountSeq, so every path agrees on any input, ASCII or not.
func WordCountSpec() mapreduce.Spec[string, int, int] {
	return mapreduce.Spec[string, int, int]{
		Name:  "wordcount",
		Split: mapreduce.DelimiterSplitter(' ', '\n', '\r', '\t'),
		Map:   countWords,
		// The combiner folds in place: the engine folds a key's per-task
		// counts as they pile up in a worker's buffers, and a fresh
		// one-element slice per fold would allocate on every fold.
		Combine: func(_ string, values []int) []int {
			sum := 0
			for _, v := range values {
				sum += v
			}
			values[0] = sum
			return values[:1]
		},
		Reduce: func(_ string, values []int) (int, error) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			return sum, nil
		},
		Less:            func(a, b string) bool { return a < b },
		FootprintFactor: WordCountFootprint,
	}
}

// asciiSpace is word count's separator class: the ASCII whitespace bytes.
// Every other byte — control characters, DEL, and each byte of a UTF-8
// sequence, U+0085 and U+00A0 included — belongs to a word. A lookup table
// keeps the classification to one load.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// countWords is word count's map kernel (in-mapper combining): it counts
// the chunk's words in a pooled wcTable and emits each distinct word once,
// with its count, in first-seen order. The table is local to the call, so
// a retried map task starts from nothing.
func countWords(chunk []byte, emit func(string, int)) error {
	t := wcTables.Get().(*wcTable)
	t.count(chunk)
	t.flush(emit)
	wcTables.Put(t)
	return nil
}

// wcTables recycles counting tables, grown to a chunk's vocabulary,
// across map calls.
var wcTables = sync.Pool{New: func() any { return newWCTable() }}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// below21 flags, in the high bit of each byte, the bytes of x that are
// below 0x21 — a superset of asciiSpace. Borrows can flag bytes above a
// true one, so only the lowest flag is exact.
func below21(x uint64) uint64 { return (x - 0x21*lsb) &^ x & msb }

// wordEnd returns the end of the word that starts at i: the index of the
// next asciiSpace byte, or len(c).
func wordEnd(c []byte, i int) int {
	for i+8 <= len(c) {
		m := below21(binary.LittleEndian.Uint64(c[i:]))
		if m == 0 {
			i += 8
			continue
		}
		j := i + bits.TrailingZeros64(m)>>3
		if asciiSpace[c[j]] {
			return j
		}
		i = j + 1
	}
	for i < len(c) && !asciiSpace[c[i]] {
		i++
	}
	return i
}

// loadKey returns the key words of a word of at most wcInlineKey bytes.
func loadKey(w []byte) (lo, hi uint64) {
	var b [wcInlineKey]byte
	copy(b[:], w)
	return binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:])
}

// wcInlineKey is the longest key a wcSlot holds inline.
const wcInlineKey = 16

// wcSlot is one 32-byte entry of a wcTable. A key of at most wcInlineKey
// bytes lives in lo and hi (its key words), so a hit is settled inside the
// slot by comparing lo, hi and n. A longer key keeps its hash in lo and its
// index in wcTable.long in hi; its length tells the two apart.
type wcSlot struct {
	lo, hi uint64
	n      int // key length; 0 marks an empty slot (words are never empty)
	count  int
}

// wcTable is an open-addressing (linear probe) counting table from words
// to their counts. Capacity is a power of two, grown at 3/4 load. order
// lists the occupied slots in first-seen order, so flush emits in an order
// that depends on the chunk alone and clears only what it used.
type wcTable struct {
	slots []wcSlot
	mask  uint64
	order []int32
	long  []string
}

// wcInitSlots is a fresh table's slot count.
const wcInitSlots = 1 << 10

func newWCTable() *wcTable {
	return &wcTable{slots: make([]wcSlot, wcInitSlots), mask: wcInitSlots - 1}
}

// wcSeed and wcSeedLen key shortHash, and wcLongSeed keys long keys'
// maphash; all are drawn once per process.
var (
	wcSeed    = rand.Uint64()
	wcSeedLen = func() (s [wcInlineKey + 1]uint64) {
		for i := range s {
			s[i] = rand.Uint64()
		}
		return s
	}()
	wcLongSeed = maphash.MakeSeed()
)

// shortHash hashes a key of at most wcInlineKey bytes from its key words,
// in the style of wyhash's short input: one 128-bit multiply of the two
// words, each xored with a seed — the second with a seed per key length,
// so keys whose bytes differ only in trailing zeros still hash apart.
func shortHash(lo, hi uint64, n int) uint64 {
	h, l := bits.Mul64(lo^wcSeed, hi^wcSeedLen[n])
	return h ^ l
}

// longHash hashes a key longer than wcInlineKey.
func longHash(w []byte) uint64 {
	if testForceHash {
		return 0
	}
	return maphash.Bytes(wcLongSeed, w)
}

// testForceHash, when true, gives every long key the same hash and sends
// every key to slot 0, so tests can walk one probe chain through every
// insert and grow that only the in-slot key compares resolve.
var testForceHash bool

// home is the first slot probed for hash h.
func (t *wcTable) home(h uint64) uint64 {
	if testForceHash {
		return 0
	}
	return h & t.mask
}

// count adds every word of c to the table; a nil table only tokenizes,
// which is what BenchmarkWordCountTokenize times.
//
// The tokenizer finds a word's end 8 bytes at a time. With 16 bytes left,
// the two 8-byte loads at the word's start both find its end (the first
// byte below 0x21, when that byte is in asciiSpace) and, masked past the
// end, are its key words, so a word of up to 16 bytes costs no branch on
// its length and no second read. A longer word, one holding a control
// byte, or one near the chunk's end takes wordEnd and loadKey instead. The
// first-probe hit, most words of a skewed text, is resolved inline.
func (t *wcTable) count(c []byte) {
	for i := 0; ; {
		for i < len(c) && asciiSpace[c[i]] {
			i++
		}
		if len(c)-i >= 16 {
			lo := binary.LittleEndian.Uint64(c[i:])
			hi := binary.LittleEndian.Uint64(c[i+8:])
			k0 := uint(bits.TrailingZeros64(below21(lo))) >> 3 // 8: none in lo
			k := k0 + uint(bits.TrailingZeros64(below21(hi)))>>3&-(k0>>3)
			if k < 16 && asciiSpace[c[i+int(k)]] {
				lo &= 1<<(8*k) - 1
				hi &= ^uint64(0) >> (128 - 8*k)
				if t != nil {
					s := &t.slots[t.home(shortHash(lo, hi, int(k)))]
					if s.lo^lo|s.hi^hi|uint64(s.n^int(k)) == 0 {
						s.count++
					} else {
						t.addShort(lo, hi, int(k))
					}
				}
				i += int(k)
				continue
			}
		}
		if i == len(c) {
			return
		}
		e := wordEnd(c, i)
		if t != nil {
			if e-i <= wcInlineKey {
				lo, hi := loadKey(c[i:e])
				t.addShort(lo, hi, e-i)
			} else {
				t.addLong(c[i:e])
			}
		}
		i = e
	}
}

// addShort counts one occurrence of the inline key (lo, hi, n).
func (t *wcTable) addShort(lo, hi uint64, n int) {
	i := t.home(shortHash(lo, hi, n))
	for {
		s := &t.slots[i]
		if s.lo^lo|s.hi^hi|uint64(s.n^n) == 0 {
			s.count++
			return
		}
		if s.n == 0 {
			t.insert(i, wcSlot{lo: lo, hi: hi, n: n, count: 1})
			return
		}
		i = (i + 1) & t.mask
	}
}

// addLong counts one occurrence of a key longer than wcInlineKey.
func (t *wcTable) addLong(w []byte) {
	h := longHash(w)
	i := t.home(h)
	for {
		s := &t.slots[i]
		if s.n == len(w) && s.lo == h && t.long[s.hi] == string(w) {
			s.count++
			return
		}
		if s.n == 0 {
			t.long = append(t.long, string(w))
			t.insert(i, wcSlot{lo: h, hi: uint64(len(t.long) - 1), n: len(w), count: 1})
			return
		}
		i = (i + 1) & t.mask
	}
}

// insert fills the empty slot i.
func (t *wcTable) insert(i uint64, s wcSlot) {
	t.slots[i] = s
	t.order = append(t.order, int32(i))
	if 4*len(t.order) > 3*len(t.slots) {
		t.grow()
	}
}

// grow doubles the table, rehashing each key from its slot.
func (t *wcTable) grow() {
	old := t.slots
	t.slots = make([]wcSlot, 2*len(old))
	t.mask = uint64(len(t.slots)) - 1
	for j, oi := range t.order {
		s := old[oi]
		h := s.lo
		if s.n <= wcInlineKey {
			h = shortHash(s.lo, s.hi, s.n)
		}
		i := t.home(h)
		for t.slots[i].n != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
		t.order[j] = int32(i)
	}
}

// key returns slot s's word.
func (t *wcTable) key(s *wcSlot) string {
	if s.n > wcInlineKey {
		return t.long[s.hi]
	}
	var b [wcInlineKey]byte
	binary.LittleEndian.PutUint64(b[:8], s.lo)
	binary.LittleEndian.PutUint64(b[8:], s.hi)
	return string(b[:s.n])
}

// flush emits every counted word once, in first-seen order, and empties
// the table for its next chunk, keeping its capacity.
func (t *wcTable) flush(emit func(string, int)) {
	for _, i := range t.order {
		s := &t.slots[i]
		emit(t.key(s), s.count)
		*s = wcSlot{}
	}
	t.order = t.order[:0]
	clear(t.long)
	t.long = t.long[:0]
}

// ModuleWordCount is the smartFAM module name word count is served under.
const ModuleWordCount = "wordcount"

// WordCountParams parametrizes the wordcount module: the paper's
// "wordcount [data-file] [partition-size]" command line (§IV-C).
type WordCountParams struct {
	// DataFile is the input path on the SD node's data store.
	DataFile string `json:"data_file"`
	// PartitionBytes is the fragment size; 0 runs in the native way;
	// core.AutoPartition (-1) lets the node pick from its memory model
	// (§IV-C's "automatically determined by the runtime system").
	PartitionBytes int64 `json:"partition_bytes,omitempty"`
	// Workers overrides the module's worker count (0 = node default).
	Workers int `json:"workers,omitempty"`
	// TopN bounds the returned frequency table (0 = 100).
	TopN int `json:"top_n,omitempty"`
	// Ranges restrict the run to the word-aligned views of these byte
	// ranges [start, end) of DataFile, which must be ascending and
	// disjoint; adjacent ones coalesce. One run answers them all: this is
	// the fleet's bundle, one request per node naming every range placed
	// there (a single range is a one-element list). Empty means the whole
	// file. Alignment follows partition.RangeReader: a record belongs to
	// the range containing its first byte, so ranges that tile the file
	// count every word exactly once.
	Ranges [][2]int64 `json:"ranges,omitempty"`
	// EmitPairs asks for the complete sorted (word, count) run in the
	// output — what a fleet coordinator needs to merge per-fragment
	// results deterministically — instead of only the TopN summary.
	EmitPairs bool `json:"emit_pairs,omitempty"`
	// Sealed marks DataFile as a sealed fragment object (payload + CRC32
	// trailer, smartfam.SealBlob): the module reads it through a verifying
	// store and fails with smartfam.ErrCorruptBlob — relayed over the wire
	// as a recognizable ModuleError — instead of silently counting corrupt
	// bytes. Sealed objects are whole fragments, so Sealed excludes Ranges.
	Sealed bool `json:"sealed,omitempty"`
}

// WordFreq is one row of the word-count output.
type WordFreq struct {
	Word  string `json:"word"`
	Count int    `json:"count"`
}

// WordCountOutput is the wordcount module's result. Unlike the other
// modules' outputs it travels as a front-coded binary record
// (MarshalBinary, wcformat.go).
type WordCountOutput struct {
	TotalWords  int64
	UniqueWords int
	Top         []WordFreq
	Fragments   int
	// FragmentKeys is the per-fragment unique-word sum; the gap to
	// UniqueWords is the dedup work the fragment merge stage did.
	FragmentKeys int
	ElapsedMs    int64
	// ShuffleMs and MergeMs break the engine time down: the summed
	// reduce-task shuffle time and the final-merge wall time across
	// fragments (see mapreduce.Stats).
	ShuffleMs int64
	MergeMs   int64
	// Pairs is the complete key-sorted (word, count) run, present only
	// when the request set EmitPairs.
	Pairs []WordFreq
}

// WordCountMerge folds per-fragment counts: partial counts add.
func WordCountMerge(acc, next int) int { return partition.SumMerge(acc, next) }

// WordCountSeq is the sequential baseline: a single pass with a hash map.
// It splits on asciiSpace byte by byte, independently of the map kernel,
// so it stays the obviously correct reference the kernel is checked
// against.
func WordCountSeq(data []byte) map[string]int {
	counts := make(map[string]int)
	start := -1
	for i, c := range data {
		switch {
		case !asciiSpace[c] && start < 0:
			start = i
		case asciiSpace[c] && start >= 0:
			counts[string(data[start:i])]++
			start = -1
		}
	}
	if start >= 0 {
		counts[string(data[start:])]++
	}
	return counts
}

// TopWords returns the n most frequent words in decreasing count order
// (ties broken alphabetically) — the paper's final word-count output format;
// n <= 0 returns every word. Only the n best words seen so far are kept, in
// a heap with the lowest-ranked at its root, so a short table over a large
// vocabulary costs O(words · log n), not a sort of the whole vocabulary.
func TopWords(counts map[string]int, n int) []mapreduce.Pair[string, int] {
	type pair = mapreduce.Pair[string, int]
	// ahead reports whether a ranks before b in the table.
	ahead := func(a, b pair) bool {
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		return a.Key < b.Key
	}
	if n <= 0 || n > len(counts) {
		n = len(counts)
	}
	top := make([]pair, 0, n)
	for w, c := range counts {
		p := pair{Key: w, Value: c}
		if len(top) < n {
			top = append(top, p)
			for i := len(top) - 1; i > 0; {
				parent := (i - 1) / 2
				if !ahead(top[parent], top[i]) {
					break
				}
				top[parent], top[i] = top[i], top[parent]
				i = parent
			}
			continue
		}
		if !ahead(p, top[0]) {
			continue
		}
		top[0] = p
		for i := 0; ; {
			worst, l := i, 2*i+1
			if l < n && ahead(top[worst], top[l]) {
				worst = l
			}
			if r := l + 1; r < n && ahead(top[worst], top[r]) {
				worst = r
			}
			if worst == i {
				break
			}
			top[i], top[worst] = top[worst], top[i]
			i = worst
		}
	}
	slices.SortFunc(top, func(a, b pair) int {
		switch {
		case ahead(a, b):
			return -1
		case ahead(b, a):
			return 1
		}
		return 0
	})
	return top
}
