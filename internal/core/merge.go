package core

import "mcsd/internal/workloads"

// Helpers for folding per-shard module outputs when a job is spread over
// several SD nodes with fleet.Coordinator.Execute (§VI multi-SD
// parallelism). String
// match and dbselect merge exactly; word count's frequency table merges
// only approximately because shards report truncated top lists.

// MergeStringMatchOutputs folds shard outputs exactly: per-key hit counts
// and totals add; samples concatenate up to sampleMax (0 = keep all).
func MergeStringMatchOutputs(shards []StringMatchOutput, sampleMax int) StringMatchOutput {
	out := StringMatchOutput{HitsPerKey: make(map[string]int)}
	for _, s := range shards {
		for k, n := range s.HitsPerKey {
			out.HitsPerKey[k] += n
		}
		out.TotalHits += s.TotalHits
		out.Fragments += s.Fragments
		out.ElapsedMs += s.ElapsedMs
		for _, line := range s.Sample {
			if sampleMax <= 0 || len(out.Sample) < sampleMax {
				out.Sample = append(out.Sample, line)
			}
		}
	}
	return out
}

// MergeDBSelectOutputs folds shard outputs exactly: revenue sums add per
// group.
func MergeDBSelectOutputs(shards []DBSelectOutput) DBSelectOutput {
	out := DBSelectOutput{Revenue: make(map[string]float64)}
	for _, s := range shards {
		for g, v := range s.Revenue {
			out.Revenue[g] += v
		}
		out.Fragments += s.Fragments
		out.ElapsedMs += s.ElapsedMs
	}
	out.Groups = len(out.Revenue)
	return out
}

// MergeWordCountOutputs folds shard outputs: TotalWords and Fragments add
// exactly; the frequency table is the merge of the shards' truncated Top
// lists, re-ranked — a lower bound on each merged word's true count is
// exact only for words present in every shard's list (the standard
// distributed top-k caveat), so UniqueWords is reported as the number of
// distinct words observed across the Top lists, not the global unique
// count. Ask shards for a generous TopN when merged rankings matter.
func MergeWordCountOutputs(shards []WordCountOutput, topN int) WordCountOutput {
	out := WordCountOutput{}
	counts := make(map[string]int)
	for _, s := range shards {
		out.TotalWords += s.TotalWords
		out.Fragments += s.Fragments
		out.ElapsedMs += s.ElapsedMs
		for _, wf := range s.Top {
			counts[wf.Word] += wf.Count
		}
	}
	out.UniqueWords = len(counts)
	for _, p := range workloads.TopWords(counts, topN) {
		out.Top = append(out.Top, WordFreq{Word: p.Key, Count: p.Value})
	}
	return out
}
