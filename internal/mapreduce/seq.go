package mapreduce

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// RunSequential executes the spec with no parallelism: one pass of Map over
// the whole input, then Reduce per key. It is the "sequential approach"
// baseline of the paper's §V-B and the execution mode of the traditional
// single-core smart disk in §V-C.
//
// Memory admission applies exactly as in Run — the sequential Phoenix
// baseline hits the same memory wall.
func RunSequential[K comparable, V any, R any](ctx context.Context, cfg Config, spec Spec[K, V, R], input []byte) (*Result[K, R], error) {
	if spec.Map == nil || spec.Reduce == nil {
		return nil, ErrSpecIncomplete
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if cfg.Memory != nil {
		h, err := cfg.Memory.ReserveHandle(int64(float64(len(input)) * EffectiveFootprint(spec.FootprintFactor)))
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %q: %w", spec.Name, err)
		}
		defer h.Release()
	}

	res := &Result[K, R]{}
	res.Stats.InputBytes = int64(len(input))

	start := time.Now()
	inter := make(map[K][]V)
	var emitted int64
	emit := func(k K, v V) {
		inter[k] = append(inter[k], v)
		emitted++
	}
	// Still chunk the input (a sequential loop over map tasks) so Map
	// callbacks see the same chunk shapes as the parallel engine.
	split := spec.Split
	if split == nil {
		split = FixedSplitter
	}
	chunks := split(input, cfg.chunkSize(len(input)))
	res.Stats.MapTasks = len(chunks)
	for _, chunk := range chunks {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if err := guard(func() error { return spec.Map(chunk, emit) }); err != nil {
			return nil, &taskError{phase: "map", spec: spec.Name, err: err}
		}
	}
	if spec.Combine != nil {
		for k, vs := range inter {
			inter[k] = spec.Combine(k, vs)
		}
	}
	res.Stats.PairsEmitted = emitted
	res.Stats.MapTime = time.Since(start)

	start = time.Now()
	keys := make([]K, 0, len(inter))
	for k := range inter {
		keys = append(keys, k)
	}
	if spec.Less != nil {
		sort.Slice(keys, func(i, j int) bool { return spec.Less(keys[i], keys[j]) })
	}
	res.Stats.ShuffleTime = time.Since(start)
	res.Pairs = make([]Pair[K, R], 0, len(keys))
	for _, k := range keys {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		var rv R
		if err := guard(func() error {
			var e error
			rv, e = spec.Reduce(k, inter[k])
			return e
		}); err != nil {
			return nil, &taskError{phase: "reduce", spec: spec.Name, err: err}
		}
		res.Pairs = append(res.Pairs, Pair[K, R]{Key: k, Value: rv})
	}
	res.Stats.UniqueKeys = len(keys)
	res.Stats.FragmentKeys = len(keys)
	res.Stats.ReduceTasks = 1
	res.Stats.ReduceTime = time.Since(start)
	return res, nil
}
