package fleet

import "context"

// The word-count tests drive the real core module, and core imports
// fleet, so they live in package fleet_test and reach these internals
// through the names below.

var (
	FastConfig     = fastConfig
	RangeFragments = rangeFragments
)

func (c *Coordinator) GatherWordCount(ctx context.Context, frags []Fragment, topN int) (*WordCountResult, error) {
	return c.gatherWordCount(ctx, frags, topN)
}
