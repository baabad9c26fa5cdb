package core

import (
	"testing"
)

func TestMergeStringMatchOutputsExact(t *testing.T) {
	shards := []StringMatchOutput{
		{HitsPerKey: map[string]int{"A": 2, "B": 1}, TotalHits: 3, Fragments: 2,
			Sample: []string{"l1", "l2"}},
		{HitsPerKey: map[string]int{"B": 4, "C": 1}, TotalHits: 5, Fragments: 3,
			Sample: []string{"l3"}},
	}
	got := MergeStringMatchOutputs(shards, 2)
	if got.TotalHits != 8 || got.Fragments != 5 {
		t.Fatalf("totals wrong: %+v", got)
	}
	if got.HitsPerKey["A"] != 2 || got.HitsPerKey["B"] != 5 || got.HitsPerKey["C"] != 1 {
		t.Fatalf("per-key merge wrong: %v", got.HitsPerKey)
	}
	if len(got.Sample) != 2 {
		t.Fatalf("sample cap not honoured: %v", got.Sample)
	}
	// sampleMax 0 keeps everything.
	if all := MergeStringMatchOutputs(shards, 0); len(all.Sample) != 3 {
		t.Fatalf("sampleMax=0 kept %d lines, want 3", len(all.Sample))
	}
}

func TestMergeDBSelectOutputsExact(t *testing.T) {
	shards := []DBSelectOutput{
		{Revenue: map[string]float64{"north": 10.5, "south": 2}, Fragments: 1},
		{Revenue: map[string]float64{"north": 4.5, "east": 1}, Fragments: 2},
	}
	got := MergeDBSelectOutputs(shards)
	if got.Revenue["north"] != 15 || got.Revenue["south"] != 2 || got.Revenue["east"] != 1 {
		t.Fatalf("revenue merge wrong: %v", got.Revenue)
	}
	if got.Groups != 3 || got.Fragments != 3 {
		t.Fatalf("metadata wrong: %+v", got)
	}
}

func TestMergeWordCountOutputs(t *testing.T) {
	shards := []WordCountOutput{
		{TotalWords: 100, Fragments: 2, Top: []WordFreq{{Word: "the", Count: 30}, {Word: "fox", Count: 10}}},
		{TotalWords: 50, Fragments: 1, Top: []WordFreq{{Word: "the", Count: 20}, {Word: "dog", Count: 15}}},
	}
	got := MergeWordCountOutputs(shards, 2)
	if got.TotalWords != 150 || got.Fragments != 3 {
		t.Fatalf("totals wrong: %+v", got)
	}
	if len(got.Top) != 2 || got.Top[0].Word != "the" || got.Top[0].Count != 50 {
		t.Fatalf("top merge wrong: %v", got.Top)
	}
	if got.UniqueWords != 3 {
		t.Fatalf("UniqueWords = %d, want 3 distinct observed", got.UniqueWords)
	}
}

func TestMergeEmptyShards(t *testing.T) {
	if got := MergeStringMatchOutputs(nil, 5); got.TotalHits != 0 || len(got.HitsPerKey) != 0 {
		t.Fatal("empty SM merge not zero")
	}
	if got := MergeDBSelectOutputs(nil); got.Groups != 0 {
		t.Fatal("empty DB merge not zero")
	}
	if got := MergeWordCountOutputs(nil, 5); got.TotalWords != 0 {
		t.Fatal("empty WC merge not zero")
	}
}
