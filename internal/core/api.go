package core

import (
	"encoding"
	"encoding/json"
	"fmt"

	"mcsd/internal/workloads"
)

// Standard module names preloaded on every McSD node.
const (
	ModuleWordCount   = workloads.ModuleWordCount
	ModuleStringMatch = "stringmatch"
	ModuleMatMul      = "matmul"
)

// The word-count parameter and result types live with the word-count spec
// in internal/workloads, which internal/fleet shares without importing
// core. The result travels as the front-coded binary record of
// workloads/wcformat.go, which encode and Decode pick up on their own.
type (
	WordCountParams = workloads.WordCountParams
	WordCountOutput = workloads.WordCountOutput
	WordFreq        = workloads.WordFreq
)

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
