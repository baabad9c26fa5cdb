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

func TestMergeEmptyShards(t *testing.T) {
	if got := MergeStringMatchOutputs(nil, 5); got.TotalHits != 0 || len(got.HitsPerKey) != 0 {
		t.Fatal("empty SM merge not zero")
	}
}
