package core

import (
	"encoding"
	"encoding/json"
	"fmt"
)

// Standard module names preloaded on every McSD node.
const (
	ModuleWordCount   = "wordcount"
	ModuleStringMatch = "stringmatch"
	ModuleMatMul      = "matmul"
)

// WordCountParams parametrizes the wordcount module: the paper's
// "wordcount [data-file] [partition-size]" command line (§IV-C).
type WordCountParams struct {
	// DataFile is the input path on the SD node's data store.
	DataFile string `json:"data_file"`
	// PartitionBytes is the fragment size; 0 runs in the native way;
	// AutoPartition (-1) lets the node pick from its memory model (§IV-C's
	// "automatically determined by the runtime system").
	PartitionBytes int64 `json:"partition_bytes,omitempty"`
	// Workers overrides the module's worker count (0 = node default).
	Workers int `json:"workers,omitempty"`
	// TopN bounds the returned frequency table (0 = 100).
	TopN int `json:"top_n,omitempty"`
	// Sequential opts out of the default fragment-parallel driver
	// (partition.RunParallel) and processes fragments strictly one at a
	// time — the choice when the node's memory budget cannot spare the
	// pool's extra resident fragments and in-flight fragment outputs.
	Sequential bool `json:"sequential,omitempty"`
	// RangeOffset/RangeBytes restrict the run to the word-aligned view of
	// the byte range [RangeOffset, RangeOffset+RangeBytes) of DataFile —
	// the fleet's scatter unit. RangeBytes <= 0 means the whole file.
	// Alignment follows partition.RangeReader: a record belongs to the
	// range containing its first byte, so adjacent ranges count every word
	// exactly once.
	RangeOffset int64 `json:"range_offset,omitempty"`
	RangeBytes  int64 `json:"range_bytes,omitempty"`
	// EmitPairs asks for the complete sorted (word, count) run in the
	// output — what a fleet coordinator needs to merge per-fragment
	// results deterministically — instead of only the TopN summary.
	EmitPairs bool `json:"emit_pairs,omitempty"`
	// Sealed marks DataFile as a sealed fragment object (payload + CRC32
	// trailer, smartfam.SealBlob): the module reads it through a verifying
	// SealedStore and fails with smartfam.ErrCorruptBlob — relayed over
	// the wire as a recognizable ModuleError — instead of silently
	// counting corrupt bytes. Sealed objects are whole fragments, so
	// Sealed excludes RangeOffset/RangeBytes.
	Sealed bool `json:"sealed,omitempty"`
}

// WordFreq is one row of the word-count output.
type WordFreq struct {
	Word  string `json:"word"`
	Count int    `json:"count"`
}

// WordCountOutput is the wordcount module's result. Unlike the other
// modules' outputs it travels as a front-coded binary record
// (MarshalBinary, wcformat.go), which encode and Decode pick up on their
// own.
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

// StringMatchParams parametrizes the stringmatch module: the "encrypt"
// file scanned for the target strings of a "keys" file (§V-A).
type StringMatchParams struct {
	DataFile       string `json:"data_file"`
	KeysFile       string `json:"keys_file"`
	PartitionBytes int64  `json:"partition_bytes,omitempty"`
	Workers        int    `json:"workers,omitempty"`
	// SampleLines bounds how many matching lines are returned verbatim
	// (counts are always complete). 0 = 10.
	SampleLines int `json:"sample_lines,omitempty"`
	// Sequential opts out of the default fragment-parallel driver.
	Sequential bool `json:"sequential,omitempty"`
}

// StringMatchOutput is the stringmatch module's result.
type StringMatchOutput struct {
	HitsPerKey map[string]int `json:"hits_per_key"`
	TotalHits  int64          `json:"total_hits"`
	Sample     []string       `json:"sample"`
	Fragments  int            `json:"fragments"`
	ElapsedMs  int64          `json:"elapsed_ms"`
}

// MatMulParams parametrizes the matmul module. Matrices are generated
// deterministically from the seeds on the executing node, so only the
// description crosses the wire.
type MatMulParams struct {
	N       int   `json:"n"`
	SeedA   int64 `json:"seed_a"`
	SeedB   int64 `json:"seed_b"`
	Workers int   `json:"workers,omitempty"`
}

// MatMulOutput is the matmul module's result: a content checksum (the
// trace and Frobenius-norm square) rather than the full product.
type MatMulOutput struct {
	N         int     `json:"n"`
	Trace     float64 `json:"trace"`
	FrobSq    float64 `json:"frob_sq"`
	ElapsedMs int64   `json:"elapsed_ms"`
}

// encode marshals module parameters or results: through MarshalBinary for
// a type that has one (the word-count output), as JSON otherwise.
func encode(v any) ([]byte, error) {
	var b []byte
	var err error
	if m, ok := v.(encoding.BinaryMarshaler); ok {
		b, err = m.MarshalBinary()
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return nil, fmt.Errorf("core: encoding %T: %w", v, err)
	}
	return b, nil
}

// Decode unmarshals a module result payload into out, the way encode
// marshalled it.
func Decode(payload []byte, out any) error {
	var err error
	if u, ok := out.(encoding.BinaryUnmarshaler); ok {
		err = u.UnmarshalBinary(payload)
	} else {
		err = json.Unmarshal(payload, out)
	}
	if err != nil {
		return fmt.Errorf("core: decoding %T: %w", out, err)
	}
	return nil
}
