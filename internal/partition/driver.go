package partition

import (
	"context"
	"fmt"
	"io"
	"sort"

	"mcsd/internal/mapreduce"
	"mcsd/internal/memsim"
)

// Result is the merged output of a partitioned run.
type Result[K comparable, R any] struct {
	// Pairs holds the merged final pairs, sorted when the spec had Less.
	Pairs []mapreduce.Pair[K, R]
	// Fragments is how many fragments were processed.
	Fragments int
	// Stats aggregates per-fragment engine statistics: counters and times
	// are summed, UniqueKeys is the post-merge key count of the whole run,
	// and FragmentKeys preserves the per-fragment unique-key sum (see
	// mapreduce.Stats).
	Stats mapreduce.Stats
}

// Map returns the merged results as a map.
func (r *Result[K, R]) Map() map[K]R {
	m := make(map[K]R, len(r.Pairs))
	for _, p := range r.Pairs {
		m[p.Key] = p.Value
	}
	return m
}

// Run executes spec over the stream input in fragments of opts.FragmentSize
// (extended by the integrity check), merging per-fragment outputs with
// merge. This is the extended two-stage Phoenix workflow of Fig. 6:
//
//	Partition -> [ Split -> Map -> Sort -> Reduce -> Merge ]* -> Merge
//
// except that the Sort runs once, over the merged result, not per fragment
// (see unordered). Only one fragment's footprint is resident at a time, so
// a data set much larger than cfg.Memory still runs — and runs faster than
// a thrashing native execution.
func Run[K comparable, V any, R any](
	ctx context.Context,
	cfg mapreduce.Config,
	spec mapreduce.Spec[K, V, R],
	input io.Reader,
	opts Options,
	merge MergeFunc[R],
) (*Result[K, R], error) {
	if merge == nil {
		return nil, fmt.Errorf("partition: %q: merge function is required", spec.Name)
	}
	sc := NewScanner(input, opts)
	engSpec := unordered(spec)
	var acc map[K]R
	res := &Result[K, R]{}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		frag, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		fragRes, err := mapreduce.Run(ctx, cfg, engSpec, frag)
		if err != nil {
			return nil, fmt.Errorf("partition: fragment %d: %w", res.Fragments+1, err)
		}
		res.Fragments++
		accumulateStats(&res.Stats, fragRes.Stats)
		if acc == nil {
			// Pre-size the accumulator from the first fragment's
			// cardinality — later fragments mostly re-hit these keys.
			acc = make(map[K]R, 2*len(fragRes.Pairs))
		}
		for _, p := range fragRes.Pairs {
			if prev, ok := acc[p.Key]; ok {
				acc[p.Key] = merge(prev, p.Value)
			} else {
				acc[p.Key] = p.Value
			}
		}
	}

	res.Pairs = make([]mapreduce.Pair[K, R], 0, len(acc))
	for k, v := range acc {
		res.Pairs = append(res.Pairs, mapreduce.Pair[K, R]{Key: k, Value: v})
	}
	if spec.Less != nil {
		sort.Slice(res.Pairs, func(i, j int) bool {
			return spec.Less(res.Pairs[i].Key, res.Pairs[j].Key)
		})
	}
	res.Stats.UniqueKeys = len(res.Pairs)
	return res, nil
}

// unordered returns spec without its key ordering, for the per-fragment
// engine runs: the drivers fold fragment outputs into a hash accumulator
// and sort once at the end, so a per-fragment key sort and k-way merge
// would order keys only for the accumulator to discard the order. Each
// key's fragment values still fold in scan order, so non-commutative
// merges (ConcatMerge) are unaffected.
func unordered[K comparable, V any, R any](spec mapreduce.Spec[K, V, R]) mapreduce.Spec[K, V, R] {
	spec.Less = nil
	return spec
}

// accumulateStats folds one fragment's engine statistics into the run
// total. Counters and times sum; per-fragment UniqueKeys sums into
// FragmentKeys (the drivers overwrite UniqueKeys with the post-merge key
// count at the end, so the per-fragment counts would otherwise be lost and
// the bench tables would under-report shuffle work).
func accumulateStats(dst *mapreduce.Stats, s mapreduce.Stats) {
	dst.MapTasks += s.MapTasks
	dst.ReduceTasks += s.ReduceTasks
	dst.PairsEmitted += s.PairsEmitted
	dst.FragmentKeys += s.UniqueKeys
	dst.TaskRetries += s.TaskRetries
	dst.InputBytes += s.InputBytes
	dst.SplitTime += s.SplitTime
	dst.MapTime += s.MapTime
	dst.ShuffleTime += s.ShuffleTime
	dst.ReduceTime += s.ReduceTime
	dst.MergeTime += s.MergeTime
}

// AutoFragmentSize picks a fragment size for a node's memory configuration
// and a workload's footprint factor — the "automatically determined by the
// runtime system" path of §IV-C. It targets half of usable RAM for the
// whole fragment footprint, leaving headroom for the runtime itself.
func AutoFragmentSize(mem memsim.Config, footprintFactor float64) int64 {
	if footprintFactor < 1 {
		footprintFactor = 2
	}
	frag := int64(float64(mem.Usable()) / (2 * footprintFactor))
	// Floor against pathological fragment counts; 4 KiB still lets
	// deliberately tiny test nodes partition meaningfully.
	if frag < 4<<10 {
		frag = 4 << 10
	}
	return frag
}
