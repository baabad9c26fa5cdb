package workloads

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"iter"
	"maps"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

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
// ranks by count for the report. A caller that only ranks (the wordcount
// module without EmitPairs) clears Less and skips the key sort.
//
// A word is a maximal run of bytes outside asciiSpace. That one rule is
// shared by the kernel, the parallel engine, RunSequential and
// WordCountSeq, so every path agrees on any input, ASCII or not.
func WordCountSpec() mapreduce.Spec[string, int, int] {
	return mapreduce.Spec[string, int, int]{
		Name:  "wordcount",
		Split: wcSplit,
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

// wcSplit cuts word-count input into tasks at whitespace.
var wcSplit = mapreduce.DelimiterSplitter(' ', '\n', '\r', '\t')

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
						t.addShort(lo, hi, int(k), 1)
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
				t.addShort(lo, hi, e-i, 1)
			} else {
				addLong(t, c[i:e], longHash(c[i:e]), 1)
			}
		}
		i = e
	}
}

// addShort counts c occurrences of the inline key (lo, hi, n).
func (t *wcTable) addShort(lo, hi uint64, n, c int) {
	i := t.home(shortHash(lo, hi, n))
	for {
		s := &t.slots[i]
		if s.lo^lo|s.hi^hi|uint64(s.n^n) == 0 {
			s.count += c
			return
		}
		if s.n == 0 {
			t.insert(i, wcSlot{lo: lo, hi: hi, n: n, count: c})
			return
		}
		i = (i + 1) & t.mask
	}
}

// addLong counts c occurrences of w, a key longer than wcInlineKey whose
// longHash is h. A key from the text is a []byte, copied into t.long only
// when new; one folded from another table is that table's string.
func addLong[W []byte | string](t *wcTable, w W, h uint64, c int) {
	i := t.home(h)
	for {
		s := &t.slots[i]
		if s.n == len(w) && s.lo == h && t.long[s.hi] == string(w) {
			s.count += c
			return
		}
		if s.n == 0 {
			t.long = append(t.long, string(w))
			t.insert(i, wcSlot{lo: h, hi: uint64(len(t.long) - 1), n: len(w), count: c})
			return
		}
		i = (i + 1) & t.mask
	}
}

// absorb adds o's counts to t, keyed on o's slots: a short key is
// re-hashed from its key words, a long one found by its stored hash and
// string. No key becomes a new string.
func (t *wcTable) absorb(o *wcTable) {
	for _, i := range o.order {
		s := &o.slots[i]
		if s.n <= wcInlineKey {
			t.addShort(s.lo, s.hi, s.n, s.count)
		} else {
			addLong(t, o.long[s.hi], s.lo, s.count)
		}
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

// inlineKey returns the bytes of the inline key of s.
func inlineKey(s *wcSlot) []byte {
	var b [wcInlineKey]byte
	binary.LittleEndian.PutUint64(b[:8], s.lo)
	binary.LittleEndian.PutUint64(b[8:], s.hi)
	return b[:s.n]
}

// flush emits every counted word once, in first-seen order, and empties
// the table for its next chunk.
func (t *wcTable) flush(emit func(string, int)) {
	t.each(emit)
	t.reset()
}

// reset empties the table, keeping its capacity.
func (t *wcTable) reset() {
	for _, i := range t.order {
		t.slots[i] = wcSlot{}
	}
	t.order = t.order[:0]
	clear(t.long)
	t.long = t.long[:0]
}

// words returns every counted word with its count, in first-seen order.
func (t *wcTable) words() []WordFreq {
	out := make([]WordFreq, 0, len(t.order))
	t.each(func(w string, n int) { out = append(out, WordFreq{Word: w, Count: n}) })
	return out
}

// each calls f with every counted word and its count, in first-seen
// order. The short words are cut from one string, so the whole vocabulary
// costs one allocation.
func (t *wcTable) each(f func(string, int)) {
	size := 0
	for _, i := range t.order {
		if n := t.slots[i].n; n <= wcInlineKey {
			size += n
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, i := range t.order {
		if s := &t.slots[i]; s.n <= wcInlineKey {
			b.Write(inlineKey(s))
		}
	}
	short := b.String()
	for _, i := range t.order {
		s := &t.slots[i]
		if s.n > wcInlineKey {
			f(t.long[s.hi], s.count)
			continue
		}
		f(short[:s.n], s.count)
		short = short[s.n:]
	}
}

// WordCountJob is one word-count job's counting state, which outlives its
// fragments: a wcTable per pool worker, into which every fragment that
// worker runs counts, with no per-fragment flush. Output folds the tables
// once, when the pool has drained, and makes each distinct word's string
// only then.
type WordCountJob struct {
	tables []*wcTable // by worker; nil until the worker counts
}

// NewWordCountJob returns an empty job for a pool of up to workers
// workers (partition.Each's cfg.EffectiveWorkers()).
func NewWordCountJob(workers int) *WordCountJob {
	return &WordCountJob{tables: make([]*wcTable, workers)}
}

// table returns worker w's table, taking one from wcTables on first use.
func (j *WordCountJob) table(w int) *wcTable {
	if j.tables[w] == nil {
		j.tables[w] = wcTables.Get().(*wcTable)
	}
	return j.tables[w]
}

// Count is the job's partition.Each callback: it counts f into its
// worker's table. A fragment counts in tasks of at most
// mapreduce.SoloTaskMax bytes, cut at whitespace, with ctx checked before
// each, so a native run over a large input stays cancellable. In a pool
// of one (f.Cores > 1) the fragment is the only one running, so, as the
// engine does, it is cut into about 4 tasks per core (64 KiB at least),
// dealt round-robin to f.Cores goroutines, each counting into its own
// table.
func (j *WordCountJob) Count(ctx context.Context, f partition.Fragment) error {
	size := mapreduce.SoloTaskMax
	if f.Cores > 1 {
		size = min(size, max(64<<10, len(f.Data)/(4*f.Cores)))
	}
	tasks := [][]byte{f.Data}
	if len(f.Data) > size {
		tasks = wcSplit(f.Data, size)
	}
	cores := min(f.Cores, len(tasks))
	if cores <= 1 {
		return j.countTasks(ctx, f.Worker, tasks, 1)
	}
	var wg sync.WaitGroup
	for g := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = j.countTasks(ctx, g, tasks[g:], cores) // ctx.Err() is returned below
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// countTasks counts every step-th task, from the first, into worker w's
// table.
func (j *WordCountJob) countTasks(ctx context.Context, w int, tasks [][]byte, step int) error {
	t := j.table(w)
	for i := 0; i < len(tasks); i += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.count(tasks[i])
	}
	return nil
}

// Output folds the job's tables into the largest and reads the result off
// it: the totals, the topN table (see TopWordsSeq) and, with pairs, the
// complete key-sorted run. FragmentKeys is the number of keys that entered
// the fold — the sum of the tables' key counts — and MergeMs its time;
// ShuffleMs is the time of the key sort. Output hands the tables back to
// wcTables: the job must not be used again.
func (j *WordCountJob) Output(topN int, pairs bool) WordCountOutput {
	start := time.Now()
	var t *wcTable
	keys := 0
	for _, o := range j.tables {
		if o == nil {
			continue
		}
		keys += len(o.order)
		if t == nil || len(o.order) > len(t.order) {
			t = o
		}
	}
	if t == nil { // no fragments: an empty input
		t = j.table(0)
	}
	for _, o := range j.tables {
		if o != nil && o != t {
			t.absorb(o)
		}
	}
	out := WordCountOutput{
		UniqueWords:  len(t.order),
		FragmentKeys: keys,
		MergeMs:      time.Since(start).Milliseconds(),
	}
	words := t.words()
	for _, w := range words {
		out.TotalWords += int64(w.Count)
	}
	all := func(yield func(string, int) bool) {
		for _, w := range words {
			if !yield(w.Word, w.Count) {
				return
			}
		}
	}
	for _, pr := range TopWordsSeq(all, topN) {
		out.Top = append(out.Top, WordFreq{Word: pr.Key, Count: pr.Value})
	}
	if pairs {
		start = time.Now()
		slices.SortFunc(words, func(a, b WordFreq) int { return strings.Compare(a.Word, b.Word) })
		out.Pairs = words
		out.ShuffleMs = time.Since(start).Milliseconds()
	}
	for i, o := range j.tables {
		if o != nil {
			o.reset()
			wcTables.Put(o)
			j.tables[i] = nil
		}
	}
	return out
}

// ModuleWordCount is the smartFAM module name word count is served under.
const ModuleWordCount = "wordcount"

// WordCountParams parametrizes the wordcount module: the paper's
// "wordcount [data-file] [partition-size]" command line (§IV-C).
type WordCountParams struct {
	// DataFile is the input path on the SD node's data store.
	DataFile string `json:"data_file"`
	// PartitionBytes is the fragment size; 0 runs in the native way;
	// a negative size lets the node pick from its memory model
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
	// FragmentKeys is how many keys entered the final fold: the sum of
	// the distinct words of each worker's counting table (see
	// WordCountJob.Output). It lies between UniqueWords and UniqueWords
	// times the tables the job counted on; the gap to UniqueWords is the
	// dedup work the fold did.
	FragmentKeys int
	ElapsedMs    int64
	// ShuffleMs is the time of the key sort that orders Pairs, and
	// MergeMs that of the fold of the workers' tables.
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

// TopWords returns the n most frequent words of counts in decreasing count
// order (ties broken alphabetically) — the paper's final word-count output
// format; n <= 0 returns every word. See TopWordsSeq.
func TopWords(counts map[string]int, n int) []mapreduce.Pair[string, int] {
	return TopWordsSeq(maps.All(counts), n)
}

// TopWordsSeq ranks the (word, count) pairs of seq, whose words must be
// distinct, as TopWords does. Only the n best words seen so far are kept,
// in a heap with the lowest-ranked at its root, so a short table over a
// large vocabulary costs O(words · log n), not a sort of the whole
// vocabulary, and the words may come in any order.
func TopWordsSeq(seq iter.Seq2[string, int], n int) []mapreduce.Pair[string, int] {
	type pair = mapreduce.Pair[string, int]
	// ahead reports whether a ranks before b in the table.
	ahead := func(a, b pair) bool {
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		return a.Key < b.Key
	}
	if n <= 0 {
		n = math.MaxInt
	}
	var top []pair
	for w, c := range seq {
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
