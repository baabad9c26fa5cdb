package workloads

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mcsd/internal/mapreduce"
	"mcsd/internal/partition"
)

func TestGenerateTextDeterministicAndSized(t *testing.T) {
	a := GenerateTextBytes(10_000, 42)
	b := GenerateTextBytes(10_000, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different text")
	}
	c := GenerateTextBytes(10_000, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical text")
	}
	if len(a) < 10_000 || len(a) > 10_200 {
		t.Fatalf("generated %d bytes, want ~10000", len(a))
	}
}

func TestGenerateTextHasWordsAndSkew(t *testing.T) {
	text := GenerateTextBytes(100_000, 1)
	counts := WordCountSeq(text)
	if len(counts) < 100 {
		t.Fatalf("only %d distinct words, want a rich vocabulary", len(counts))
	}
	top := TopWords(counts, 1)
	if top[0].Value < 100 {
		t.Fatalf("most frequent word appears %d times, want heavy Zipf head", top[0].Value)
	}
}

func TestGenerateKeysDistinct(t *testing.T) {
	keys := GenerateKeys(50, 7)
	if len(keys) != 50 {
		t.Fatalf("got %d keys, want 50", len(keys))
	}
	seen := make(map[string]bool)
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}

func TestGenerateEncryptFileEmbedsKeys(t *testing.T) {
	keys := GenerateKeys(5, 3)
	data := GenerateEncryptBytes(50_000, 11, keys, 0.2)
	hits := StringMatchSeq(data, keys)
	if len(hits) == 0 {
		t.Fatal("no keys embedded at 20% hit rate")
	}
	// Every reported hit must actually contain its key.
	for _, h := range hits {
		if !strings.Contains(h.Line, h.Key) {
			t.Fatalf("hit line %q does not contain key %q", h.Line, h.Key)
		}
	}
}

func TestGenerateEncryptFileZeroHitRate(t *testing.T) {
	keys := GenerateKeys(5, 3)
	data := GenerateEncryptBytes(20_000, 11, keys, 0)
	if hits := StringMatchSeq(data, keys); len(hits) != 0 {
		t.Fatalf("zero hit rate produced %d hits", len(hits))
	}
}

func TestWordCountSpecMatchesSeq(t *testing.T) {
	text := GenerateTextBytes(30_000, 5)
	res, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: 4}, WordCountSpec(), text)
	if err != nil {
		t.Fatal(err)
	}
	want := WordCountSeq(text)
	got := res.Map()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
	// Spec orders keys.
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i-1].Key >= res.Pairs[i].Key {
			t.Fatal("word count output not sorted by key")
		}
	}
}

func TestWordCountPartitionedMatchesSeq(t *testing.T) {
	text := GenerateTextBytes(20_000, 9)
	res, err := partition.Run(context.Background(), mapreduce.Config{Workers: 2},
		WordCountSpec(), bytes.NewReader(text), partition.Options{FragmentSize: 1024},
		WordCountMerge)
	if err != nil {
		t.Fatal(err)
	}
	want := WordCountSeq(text)
	got := res.Map()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestTopWordsOrderingAndLimit(t *testing.T) {
	counts := map[string]int{"a": 3, "b": 5, "c": 3, "d": 1}
	top := TopWords(counts, 3)
	if len(top) != 3 {
		t.Fatalf("got %d, want 3", len(top))
	}
	if top[0].Key != "b" {
		t.Fatalf("top word %q, want b", top[0].Key)
	}
	// Tie between a and c broken alphabetically.
	if top[1].Key != "a" || top[2].Key != "c" {
		t.Fatalf("tie order wrong: %q, %q", top[1].Key, top[2].Key)
	}
	if all := TopWords(counts, 0); len(all) != 4 {
		t.Fatalf("n=0 should return all words, got %d", len(all))
	}
}

// TestTopWordsMatchesFullSort checks the bounded selection against sorting
// the whole vocabulary, over random counts full of ties and every table
// size from empty to past the vocabulary.
func TestTopWordsMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		counts := make(map[string]int)
		for i := rng.Intn(200); i > 0; i-- {
			counts[fmt.Sprintf("w%d", rng.Intn(400))] = 1 + rng.Intn(8)
		}
		all := make([]mapreduce.Pair[string, int], 0, len(counts))
		for w, c := range counts {
			all = append(all, mapreduce.Pair[string, int]{Key: w, Value: c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Value != all[j].Value {
				return all[i].Value > all[j].Value
			}
			return all[i].Key < all[j].Key
		})
		for _, n := range []int{0, 1, 2, 7, len(counts) / 2, len(counts), len(counts) + 3} {
			want := all
			if n > 0 && n < len(all) {
				want = all[:n]
			}
			if got := TopWords(counts, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d: got %v, want %v", trial, n, got, want)
			}
		}
	}
}

func TestStringMatchSpecMatchesSeq(t *testing.T) {
	keys := GenerateKeys(8, 21)
	data := GenerateEncryptBytes(40_000, 22, keys, 0.15)
	res, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: 4},
		StringMatchSpec(keys), data)
	if err != nil {
		t.Fatal(err)
	}
	seq := StringMatchSeq(data, keys)
	seqByKey := make(map[string]int)
	for _, m := range seq {
		seqByKey[m.Key]++
	}
	parByKey := make(map[string]int)
	for _, p := range res.Pairs {
		parByKey[p.Key] = len(p.Value)
	}
	if len(parByKey) != len(seqByKey) {
		t.Fatalf("got %d matched keys, want %d", len(parByKey), len(seqByKey))
	}
	for k, n := range seqByKey {
		if parByKey[k] != n {
			t.Fatalf("matches[%q] = %d, want %d", k, parByKey[k], n)
		}
	}
}

func TestStringMatchPartitioned(t *testing.T) {
	keys := GenerateKeys(4, 31)
	data := GenerateEncryptBytes(30_000, 32, keys, 0.1)
	res, err := partition.Run(context.Background(), mapreduce.Config{Workers: 2},
		StringMatchSpec(keys), bytes.NewReader(data),
		partition.Options{FragmentSize: 4096, Delimiters: []byte{'\n'}},
		StringMatchMerge)
	if err != nil {
		t.Fatal(err)
	}
	seq := StringMatchSeq(data, keys)
	total := 0
	for _, p := range res.Pairs {
		total += len(p.Value)
	}
	if total != len(seq) {
		t.Fatalf("partitioned found %d matches, sequential %d", total, len(seq))
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At broken")
	}
	if r := m.Row(1); len(r) != 3 || r[2] != 7 {
		t.Fatal("Row broken")
	}
	if !m.Equal(m, 0) {
		t.Fatal("matrix not equal to itself")
	}
	if m.Equal(NewMatrix(3, 2), 0) {
		t.Fatal("shape mismatch reported equal")
	}
	if m.Equal(nil, 0) {
		t.Fatal("nil reported equal")
	}
}

func TestMatMulSeqKnownProduct(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c, err := MatMulSeq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulSeqShapeMismatch(t *testing.T) {
	if _, err := MatMulSeq(NewMatrix(2, 3), NewMatrix(2, 3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestMatMulSpecMatchesSeq(t *testing.T) {
	a := RandomMatrix(17, 23, 1)
	b := RandomMatrix(23, 11, 2)
	want, err := MatMulSeq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(context.Background(),
		mapreduce.Config{Workers: 4, ChunkSize: 8}, MatMulSpec(a, b), RowIndexInput(a.Rows))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AssembleMatrix(a.Rows, b.Cols, res.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatal("MapReduce product differs from sequential product")
	}
}

func TestMatMulSpecBadInput(t *testing.T) {
	a := RandomMatrix(4, 4, 1)
	spec := MatMulSpec(a, a)
	if _, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: 1, MaxTaskRetries: 1},
		spec, []byte("notanumber\n")); err == nil {
		t.Fatal("garbage row index accepted")
	}
	if _, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: 1, MaxTaskRetries: 1},
		spec, []byte("99\n")); err == nil {
		t.Fatal("out-of-range row index accepted")
	}
}

func TestAssembleMatrixValidation(t *testing.T) {
	pairs := []mapreduce.Pair[int, []float64]{{Key: 0, Value: []float64{1, 2}}}
	if _, err := AssembleMatrix(2, 2, pairs); err == nil {
		t.Fatal("missing row accepted")
	}
	dup := []mapreduce.Pair[int, []float64]{
		{Key: 0, Value: []float64{1, 2}}, {Key: 0, Value: []float64{3, 4}},
	}
	if _, err := AssembleMatrix(1, 2, dup); err == nil {
		t.Fatal("duplicate row accepted")
	}
	short := []mapreduce.Pair[int, []float64]{{Key: 0, Value: []float64{1}}}
	if _, err := AssembleMatrix(1, 2, short); err == nil {
		t.Fatal("short row accepted")
	}
}

// Property: MapReduce matmul equals sequential matmul on random shapes.
func TestMatMulEquivalenceProperty(t *testing.T) {
	prop := func(seedA, seedB int64, dims [3]uint8) bool {
		n, k, m := int(dims[0])%8+1, int(dims[1])%8+1, int(dims[2])%8+1
		a := RandomMatrix(n, k, seedA)
		b := RandomMatrix(k, m, seedB)
		want, err := MatMulSeq(a, b)
		if err != nil {
			return false
		}
		res, err := mapreduce.Run(context.Background(),
			mapreduce.Config{Workers: 2, ChunkSize: 4}, MatMulSpec(a, b), RowIndexInput(n))
		if err != nil {
			return false
		}
		got, err := AssembleMatrix(n, m, res.Pairs)
		if err != nil {
			return false
		}
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelsSane(t *testing.T) {
	wc, sm := WordCountCost(), StringMatchCost()
	if wc.MapRateBps >= sm.MapRateBps {
		t.Fatal("word count should be slower per byte than string match")
	}
	if wc.FootprintFactor != 3 || sm.FootprintFactor != 2 {
		t.Fatal("footprint factors must match §V-C (3x WC, 2x SM)")
	}
	if !wc.Partitionable || !sm.Partitionable {
		t.Fatal("WC and SM are partition-able")
	}
	mm := MatMulCost(1024)
	if mm.Seconds() <= 0 {
		t.Fatal("matmul cost must be positive")
	}
	// 1024^3 * 2 flops at 400 Mflop/s is ~5.4 s — sanity-range check.
	if s := mm.Seconds(); s < 1 || s > 30 {
		t.Fatalf("1024^2 matmul = %.1fs, out of plausible range", s)
	}
}
