package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// The word-count result travels as a compact binary record instead of
// JSON: a fleet fragment answers with thousands of key-sorted (word, count)
// pairs, and front-coding them — each key written as the length of the
// prefix it shares with the key before it plus the remaining suffix — cuts
// the payload to about a quarter of its JSON form. Every integer is a
// uvarint:
//
//	format byte (wcFormatV1)
//	TotalWords UniqueWords Fragments FragmentKeys ElapsedMs ShuffleMs MergeMs
//	len(Top)   then per row:  len(word) word count
//	len(Pairs) then per pair: shared-prefix-len suffix-len suffix count
//
// Pair keys ascend strictly and each shared prefix is the longest one, so
// the encoding of an output is unique: the decoder rejects anything else
// (and any trailing byte), which makes every accepted record re-encode byte
// for byte.

// wcFormatV1 leads every word-count record. It can never open a JSON text,
// so a payload from a JSON-speaking peer fails as an unknown format instead
// of being misread.
const wcFormatV1 byte = 0x01

var errWCTruncated = errors.New("truncated or oversized field")

// MarshalBinary encodes the output as a front-coded word-count record. It
// fails on a negative count or field, and on pairs that are not strictly
// ascending by word.
func (o WordCountOutput) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 64+16*len(o.Top)+8*len(o.Pairs))
	b = append(b, wcFormatV1)
	for _, v := range [...]int64{o.TotalWords, int64(o.UniqueWords), int64(o.Fragments),
		int64(o.FragmentKeys), o.ElapsedMs, o.ShuffleMs, o.MergeMs} {
		if v < 0 {
			return nil, fmt.Errorf("workloads: word-count record: negative field %d", v)
		}
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(o.Top)))
	for _, wf := range o.Top {
		if wf.Count < 0 {
			return nil, fmt.Errorf("workloads: word-count record: negative count for %q", wf.Word)
		}
		b = binary.AppendUvarint(b, uint64(len(wf.Word)))
		b = append(b, wf.Word...)
		b = binary.AppendUvarint(b, uint64(wf.Count))
	}
	b = binary.AppendUvarint(b, uint64(len(o.Pairs)))
	prev := ""
	for i, wf := range o.Pairs {
		if i > 0 && wf.Word <= prev {
			return nil, fmt.Errorf("workloads: word-count record: pair %d (%q) does not ascend", i, wf.Word)
		}
		if wf.Count < 0 {
			return nil, fmt.Errorf("workloads: word-count record: negative count for %q", wf.Word)
		}
		shared := 0
		for shared < len(prev) && shared < len(wf.Word) && prev[shared] == wf.Word[shared] {
			shared++
		}
		b = binary.AppendUvarint(b, uint64(shared))
		b = binary.AppendUvarint(b, uint64(len(wf.Word)-shared))
		b = append(b, wf.Word[shared:]...)
		b = binary.AppendUvarint(b, uint64(wf.Count))
		prev = wf.Word
	}
	return b, nil
}

// UnmarshalBinary decodes a record MarshalBinary produced, replacing o. It
// rejects an unknown format byte — a JSON payload included — and every
// input MarshalBinary could not have produced.
func (o *WordCountOutput) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || data[0] != wcFormatV1 {
		return errors.New("workloads: word-count record: unknown format")
	}
	r := wcReader{b: data[1:]}
	var out WordCountOutput
	out.TotalWords = int64(r.uvarint(math.MaxInt64))
	out.UniqueWords = r.int()
	out.Fragments = r.int()
	out.FragmentKeys = r.int()
	out.ElapsedMs = int64(r.uvarint(math.MaxInt64))
	out.ShuffleMs = int64(r.uvarint(math.MaxInt64))
	out.MergeMs = int64(r.uvarint(math.MaxInt64))

	// Every Top row takes at least two bytes and every pair three, which
	// bounds the counts by what is left before anything is allocated.
	if n := int(r.uvarint(uint64(len(r.b) / 2))); n > 0 {
		out.Top = make([]WordFreq, n)
		for i := range out.Top {
			word := r.bytes(r.uvarint(math.MaxInt))
			out.Top[i] = WordFreq{Word: string(word), Count: r.int()}
		}
	}
	if n := int(r.uvarint(uint64(len(r.b) / 3))); n > 0 {
		out.Pairs = make([]WordFreq, n)
		// All keys of the record share one backing string: each key is the
		// previous one's prefix plus its suffix, appended to keys and sliced
		// back out, so decoding costs a handful of allocations, not one per
		// word.
		var keys strings.Builder
		keys.Grow(len(r.b))
		prevLen := 0
		for i := range out.Pairs {
			shared := int(r.uvarint(uint64(prevLen)))
			suffix := r.bytes(r.uvarint(math.MaxInt))
			count := r.int()
			if r.err != nil {
				break
			}
			all := keys.String()
			prev := all[len(all)-prevLen:]
			// Strictly ascending with the longest shared prefix: the suffix
			// is non-empty and, unless it extends the whole previous key,
			// opens with a byte above the previous key's byte at that spot.
			if i > 0 && (len(suffix) == 0 || shared < prevLen && suffix[0] <= prev[shared]) {
				return fmt.Errorf("workloads: word-count record: pair %d does not ascend or shares a short prefix", i)
			}
			start := keys.Len()
			keys.WriteString(prev[:shared])
			keys.Write(suffix)
			out.Pairs[i] = WordFreq{Word: keys.String()[start:], Count: count}
			prevLen = keys.Len() - start
		}
	}
	if r.err != nil {
		return fmt.Errorf("workloads: word-count record: %w", r.err)
	}
	if len(r.b) > 0 {
		return fmt.Errorf("workloads: word-count record: %d trailing bytes", len(r.b))
	}
	*o = out
	return nil
}

// wcReader consumes a word-count record field by field. The first failure
// sticks: later reads return zero values, and err says what went wrong.
type wcReader struct {
	b   []byte
	err error
}

// uvarint reads one minimally encoded uvarint no larger than max.
func (r *wcReader) uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) > 0 && r.b[0] < 0x80 && uint64(r.b[0]) <= max {
		// One byte: most lengths and counts in a record.
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0 || v > max:
		r.err = errWCTruncated
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.err = errors.New("non-minimal uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a uvarint that must fit an int.
func (r *wcReader) int() int { return int(r.uvarint(math.MaxInt)) }

// bytes reads the next n bytes.
func (r *wcReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errWCTruncated
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}
