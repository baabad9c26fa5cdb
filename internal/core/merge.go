package core

// A string-match job spread over several SD nodes with
// fleet.Coordinator.Execute (§VI multi-SD parallelism) folds its per-shard
// outputs here; the fleet word count folds its own exactly
// (fleet.Coordinator.WordCount).

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
