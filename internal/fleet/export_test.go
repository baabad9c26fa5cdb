package fleet

import (
	"context"
	"encoding/json"
	"fmt"

	"mcsd/internal/partition"
	"mcsd/internal/workloads"
)

// The word-count tests drive the real core module, and core imports
// fleet, so they live in package fleet_test and reach these internals
// through the names below.

var FastConfig = fastConfig

func (c *Coordinator) GatherWordCount(ctx context.Context, frags []Fragment, topN int) (*WordCountResult, error) {
	return c.gatherWordCount(ctx, frags, topN)
}

func (c *Coordinator) BundleFragments(job WordCountJob) ([]Fragment, error) {
	return c.bundleFragments(job)
}

// RangeFragments plans one single-range word count per aligned range,
// keyed "<file>#<index>": the per-fragment requests WordCount sent before
// it bundled them, which the tests still drive Execute with.
func RangeFragments(job WordCountJob) ([]Fragment, error) {
	ranges := partition.AlignedRanges(job.TotalBytes, job.FragmentBytes)
	frags := make([]Fragment, len(ranges))
	for i, rg := range ranges {
		params, err := json.Marshal(workloads.WordCountParams{
			DataFile: job.DataFile, Ranges: [][2]int64{rg}, EmitPairs: true, TopN: 1,
		})
		if err != nil {
			return nil, err
		}
		frags[i] = Fragment{Index: i, Key: fmt.Sprintf("%s#%d", job.DataFile, i), Params: params}
	}
	return frags, nil
}
