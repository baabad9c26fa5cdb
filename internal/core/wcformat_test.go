package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// roundTrip encodes out through the module codec and decodes it back.
func roundTrip(t *testing.T, out WordCountOutput) WordCountOutput {
	t.Helper()
	b, err := encode(out)
	if err != nil {
		t.Fatalf("encode %+v: %v", out, err)
	}
	var got WordCountOutput
	if err := Decode(b, &got); err != nil {
		t.Fatalf("decode of %+v: %v", out, err)
	}
	return got
}

func TestWordCountOutputRoundTrip(t *testing.T) {
	wf := func(kv ...any) []WordFreq {
		var rows []WordFreq
		for i := 0; i < len(kv); i += 2 {
			rows = append(rows, WordFreq{Word: kv[i].(string), Count: kv[i+1].(int)})
		}
		return rows
	}
	cases := map[string]WordCountOutput{
		"empty":    {},
		"one pair": {TotalWords: 3, UniqueWords: 1, Pairs: wf("word", 3)},
		"1-byte keys": {TotalWords: 6, UniqueWords: 3, Fragments: 1,
			Pairs: wf("a", 1, "b", 2, "c", 3)},
		"long shared prefixes": {Pairs: wf(
			strings.Repeat("x", 300)+"a", 1, strings.Repeat("x", 300)+"b", 2, strings.Repeat("x", 301), 4)},
		"key is a prefix of the next": {Pairs: wf("in", 1, "inn", 2, "inner", 3, "innermost", 4)},
		"counts 1 and MaxInt64": {TotalWords: math.MaxInt64, UniqueWords: 2,
			Pairs: wf("max", math.MaxInt64, "one", 1)},
		"top in non-key order": {TotalWords: 9, UniqueWords: 3, FragmentKeys: 5, ElapsedMs: 12, ShuffleMs: 3, MergeMs: 1,
			Top: wf("the", 5, "and", 3, "zoo", 1), Pairs: wf("and", 3, "the", 5, "zoo", 1)},
		"top only": {TotalWords: 2, UniqueWords: 1, Top: wf("only", 2)},
	}
	for name, out := range cases {
		if got := roundTrip(t, out); !reflect.DeepEqual(got, out) {
			t.Errorf("%s: round trip gave %+v, want %+v", name, got, out)
		}
	}

	// Random outputs over a four-letter alphabet, so neighbouring keys share
	// prefixes of every length.
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		set := map[string]bool{}
		for n := rng.Intn(60); len(set) < n; {
			key := make([]byte, 1+rng.Intn(9))
			for j := range key {
				key[j] = "abcd"[rng.Intn(4)]
			}
			set[string(key)] = true
		}
		var out WordCountOutput
		for key := range set {
			count := 1 + rng.Intn(1000)
			if rng.Intn(20) == 0 {
				count = math.MaxInt64
			}
			out.Pairs = append(out.Pairs, WordFreq{Word: key, Count: count})
			out.Top = append(out.Top, WordFreq{Word: key, Count: count})
		}
		sort.Slice(out.Pairs, func(a, b int) bool { return out.Pairs[a].Word < out.Pairs[b].Word })
		out.UniqueWords = len(out.Pairs)
		out.TotalWords = int64(rng.Intn(1 << 20))
		if got := roundTrip(t, out); !reflect.DeepEqual(got, out) {
			t.Fatalf("random output %d: round trip gave %+v, want %+v", i, got, out)
		}
	}
}

func TestWordCountOutputMarshalRejects(t *testing.T) {
	for name, out := range map[string]WordCountOutput{
		"descending pairs": {Pairs: []WordFreq{{Word: "b", Count: 1}, {Word: "a", Count: 1}}},
		"duplicate pairs":  {Pairs: []WordFreq{{Word: "a", Count: 1}, {Word: "a", Count: 1}}},
		"negative count":   {Pairs: []WordFreq{{Word: "a", Count: -1}}},
		"negative field":   {TotalWords: -1},
	} {
		if _, err := out.MarshalBinary(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// wcFormat is the format byte every word-count record opens with.
var wcFormat = func() byte {
	b, err := WordCountOutput{}.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b[0]
}()

// wcRecord builds a record by hand: a header of seven zero summary fields
// and an empty top table, then the given pair section.
func wcRecord(pairs ...byte) []byte {
	return append([]byte{wcFormat, 0, 0, 0, 0, 0, 0, 0, 0}, pairs...)
}

func TestWordCountOutputUnmarshalRejects(t *testing.T) {
	valid, err := WordCountOutput{TotalWords: 300, Top: []WordFreq{{Word: "ab", Count: 2}},
		Pairs: []WordFreq{{Word: "ab", Count: 2}, {Word: "abc", Count: 1}, {Word: "b", Count: 297}}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":                  nil,
		"unknown format byte":    append([]byte{0x02}, valid[1:]...),
		"JSON payload":           []byte(`{"total_words":3,"unique_words":1}`),
		"trailing bytes":         append(bytes.Clone(valid), 0),
		"non-minimal uvarint":    {wcFormat, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0},
		"shared prefix too long": wcRecord(2, 0, 1, 'a', 1, 2, 1, 'b', 1),
		"suffix past the end":    wcRecord(1, 0, 5, 'a', 'b', 1),
		"non-ascending keys":     wcRecord(2, 0, 1, 'b', 1, 0, 1, 'a', 1),
		"duplicate keys":         wcRecord(2, 0, 1, 'a', 1, 1, 0, 1),
		"key before a prefix":    wcRecord(2, 0, 2, 'a', 'b', 1, 1, 0, 1),
		"short shared prefix":    wcRecord(2, 0, 2, 'a', 'b', 1, 0, 2, 'a', 'c', 1),
		"count past MaxInt64":    wcRecord(1, 0, 1, 'a', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"pair count past input":  wcRecord(0xff, 0x01, 0, 1, 'a', 1),
	}
	for i := 0; i < len(valid); i++ {
		cases[fmt.Sprintf("truncated to %d bytes", i)] = valid[:i]
	}
	for name, data := range cases {
		var out WordCountOutput
		if err := out.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded to %+v", name, out)
		}
	}
	var out WordCountOutput
	if err := Decode([]byte(`{"total_words":3}`), &out); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("JSON payload: err = %v, want unknown format", err)
	}
}

// FuzzWordCountOutput: the decoder never panics, and whatever it accepts
// re-encodes to exactly the bytes it read.
func FuzzWordCountOutput(f *testing.F) {
	for _, out := range []WordCountOutput{
		{},
		{TotalWords: 7, UniqueWords: 3, Fragments: 2, FragmentKeys: 4, ElapsedMs: 9, ShuffleMs: 1, MergeMs: 1,
			Top: []WordFreq{{Word: "the", Count: 4}, {Word: "a", Count: 2}}, Pairs: []WordFreq{{Word: "a", Count: 2}, {Word: "an", Count: 1}, {Word: "the", Count: 4}}},
		{Pairs: []WordFreq{{Word: "", Count: 1}, {Word: "x", Count: math.MaxInt64}}},
	} {
		b, err := out.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(wcRecord(2, 0, 1, 'a', 1, 2, 1, 'b', 1))
	f.Add([]byte(`{"pairs":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out WordCountOutput
		if out.UnmarshalBinary(data) != nil {
			return
		}
		again, err := out.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted %x but cannot re-encode it: %v", data, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encoded %x", data, again)
		}
	})
}

// TestWordCountOutputSizePin pins what the format buys at the fleet's
// fragment shape: one 175 KiB range answered with EmitPairs is at most 30 %
// of its JSON form, its smartFAM response record is that payload raw plus
// a few escapes and a header, and the record fits twice into one
// group-commit batch — and so, batched, into one inline notify.
func TestWordCountOutputSizePin(t *testing.T) {
	store, dir := dataDir(t)
	const rangeBytes = 175 << 10
	writeFile(t, dir, "corpus.txt", workloads.GenerateTextBytes(2*rangeBytes, 2012))
	mod := WordCountModule(ModuleConfig{Store: store, Workers: 1})
	raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{
		DataFile: "corpus.txt", Ranges: [][2]int64{{rangeBytes / 2, rangeBytes / 2 * 3}}, EmitPairs: true, TopN: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var out WordCountOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) < 1000 {
		t.Fatalf("only %d pairs: the range is not fragment-shaped", len(out.Pairs))
	}
	js, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if 10*len(raw) > 3*len(js) {
		t.Fatalf("binary payload %d B is %.0f %% of JSON's %d B, want <= 30 %%", len(raw), 100*float64(len(raw))/float64(len(js)), len(js))
	}
	rec, err := smartfam.Record{Kind: smartfam.KindResponse, ID: smartfam.NewID(), Status: smartfam.StatusOK, Payload: raw}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if limit := len(raw)*102/100 + 64; len(rec) > limit {
		t.Fatalf("response record %d B for a %d B payload, want <= %d (the raw payload plus 2 %% of escapes and a header)", len(rec), len(raw), limit)
	}
	if len(rec) > smartfam.DefaultBatchBytes/2 {
		t.Fatalf("response record %d B, want <= %d (half a group-commit batch)", len(rec), smartfam.DefaultBatchBytes/2)
	}
	t.Logf("%d pairs: binary %d B, JSON %d B, response record %d B", len(out.Pairs), len(raw), len(js), len(rec))
}

// TestParamsIgnoreRetiredPipelined pins that a caller still sending the
// retired "pipelined" or "sequential" fields decodes exactly as one that
// does not.
func TestParamsIgnoreRetiredPipelined(t *testing.T) {
	for _, tc := range []struct {
		with, without string
		into          func() any
	}{
		{`{"data_file":"f","pipelined":true,"top_n":3}`, `{"data_file":"f","top_n":3}`, func() any { return new(WordCountParams) }},
		{`{"data_file":"f","keys_file":"k","pipelined":true}`, `{"data_file":"f","keys_file":"k"}`, func() any { return new(StringMatchParams) }},
		{`{"data_file":"f","group_by":"region","pipelined":true}`, `{"data_file":"f","group_by":"region"}`, func() any { return new(DBSelectParams) }},
		{`{"data_file":"f","sequential":true,"top_n":3}`, `{"data_file":"f","top_n":3}`, func() any { return new(WordCountParams) }},
	} {
		a, b := tc.into(), tc.into()
		if err := Decode([]byte(tc.with), a); err != nil {
			t.Fatalf("%s: %v", tc.with, err)
		}
		if err := Decode([]byte(tc.without), b); err != nil {
			t.Fatalf("%s: %v", tc.without, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s decoded to %+v, want %+v", tc.with, a, b)
		}
	}
}
