package workloads

import (
	"bytes"
	"strings"

	"mcsd/internal/mapreduce"
)

// StringMatchFootprint is the memory footprint of string match as a
// multiple of its input: "the memory footprint of String-Match is around
// two times of the input data size" (§V-C).
const StringMatchFootprint = 2.0

// Match records one hit: which key matched which line.
type Match struct {
	Key  string
	Line string
}

// StringMatchSpec returns the String Match application of §V-A: "Each Map
// searches one line in the 'encrypt' file to check whether the target
// string from a 'keys' file is in the line. Neither sort or the reduce
// stage is required" — Reduce is the identity and no key ordering is set.
// Map emits one (key, line) pair per line that contains the key.
//
// The search is still the paper's line-wise one, run key-major: rather
// than testing every line against every key, Map sweeps each key across
// the whole chunk with bytes.Index and widens a hit to its line. A key
// holds no '\n' (one that does can never lie within a line and is
// dropped), so a hit cannot span two lines; resuming past the hit's line
// keeps one pair per (key, line), and each key's lines come out in input
// order. Per key, the emitted lines are exactly those of the line-by-line
// scan (StringMatchSeq).
func StringMatchSpec(keys []string) mapreduce.Spec[string, string, []string] {
	// A key listed n times is swept once and emits n pairs per hit, as n
	// line-wise tests would.
	type target struct {
		key string
		pat []byte
		n   int
	}
	var targets []target
	seen := make(map[string]int, len(keys))
	for _, k := range keys {
		if strings.IndexByte(k, '\n') >= 0 {
			continue
		}
		if i, ok := seen[k]; ok {
			targets[i].n++
			continue
		}
		seen[k] = len(targets)
		targets = append(targets, target{key: k, pat: []byte(k), n: 1})
	}
	return mapreduce.Spec[string, string, []string]{
		Name:  "stringmatch",
		Split: mapreduce.LineSplitter,
		Map: func(chunk []byte, emit func(string, string)) error {
			for _, tg := range targets {
				// off is always a line start.
				for off := 0; off < len(chunk); {
					i := bytes.Index(chunk[off:], tg.pat)
					if i < 0 {
						break
					}
					hit := off + i
					start := off + bytes.LastIndexByte(chunk[off:hit], '\n') + 1
					end := bytes.IndexByte(chunk[hit+len(tg.pat):], '\n')
					if end < 0 {
						end = len(chunk)
					} else {
						end += hit + len(tg.pat)
					}
					if end > start { // only an empty key hits an empty line
						line := string(chunk[start:end])
						for range tg.n {
							emit(tg.key, line)
						}
					}
					off = end + 1
				}
			}
			return nil
		},
		// Identity reduce: values for a key are simply its matching lines.
		Reduce:          func(_ string, lines []string) ([]string, error) { return lines, nil },
		FootprintFactor: StringMatchFootprint,
	}
}

// StringMatchMerge folds per-fragment match lists: concatenation.
func StringMatchMerge(acc, next []string) []string { return append(acc, next...) }

// StringMatchSeq is the sequential baseline: scan every line against every
// key. It returns hits in input order.
func StringMatchSeq(data []byte, keys []string) []Match {
	var out []Match
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		for _, k := range keys {
			if bytes.Contains(line, []byte(k)) {
				out = append(out, Match{Key: k, Line: string(line)})
			}
		}
	}
	return out
}
