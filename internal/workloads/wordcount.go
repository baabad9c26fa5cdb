package workloads

import (
	"bytes"
	"slices"

	"mcsd/internal/mapreduce"
	"mcsd/internal/partition"
)

// WordCountFootprint is the memory footprint of word count as a multiple of
// its input: "the memory footprint of Word-Count is around three times of
// the input data size" (§V-C).
const WordCountFootprint = 3.0

// WordCountSpec returns the Word Count application of §V-A: Map emits
// (word, 1) per word of its chunk; Reduce sums; the final output is sorted
// so it can be "printed out in accordance with the frequency" — the spec
// sorts by key, and TopWords re-sorts by count for the report.
func WordCountSpec() mapreduce.Spec[string, int, int] {
	return mapreduce.Spec[string, int, int]{
		Name:  "wordcount",
		Split: mapreduce.DelimiterSplitter(' ', '\n', '\r', '\t'),
		Map: func(chunk []byte, emit func(string, int)) error {
			for _, w := range bytes.Fields(chunk) {
				emit(string(w), 1)
			}
			return nil
		},
		// MapBytes is the zero-copy tokenizer the parallel engine prefers:
		// words are emitted as subslices of the chunk's backing bytes, so a
		// repeated word costs no allocation at all — the engine interns each
		// distinct word once per task. Map above stays as the sequential
		// baseline (RunSequential's original path) and as documentation of
		// the allocation the zero-copy path removes.
		MapBytes: func(chunk []byte, emit func([]byte, int)) error {
			i := 0
			for i < len(chunk) {
				for i < len(chunk) && asciiSpace[chunk[i]] {
					i++
				}
				start := i
				for i < len(chunk) && !asciiSpace[chunk[i]] {
					i++
				}
				if i > start {
					emit(chunk[start:i], 1)
				}
			}
			return nil
		},
		// The combiner folds in place: the engine's streaming-combine path
		// invokes it repeatedly during the map call, so a fresh one-element
		// slice per fold would put an allocation on the emit hot path.
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

// asciiSpace mirrors the ASCII subset of bytes.Fields' separator class, so
// the Map and MapBytes tokenizers agree on any ASCII corpus (the generated
// benchmark corpora are pure ASCII). A lookup table keeps the per-byte
// classification to one load on the tokenizer hot loop.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

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
func WordCountSeq(data []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(data) {
		counts[string(w)]++
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
