package partition

import (
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"sort"
	"sync"

	"mcsd/internal/mapreduce"
	"mcsd/internal/memsim"
)

// maxMergeShards caps the merge stage's accumulator shards; past a handful
// of shards the dispatcher, not the fold, is the bottleneck.
const maxMergeShards = 8

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
// (see unordered). The fragments flow through a worker pool:
//
//	scan --fragCh--> engine pool (poolSize workers) --outCh--> ordered merge
//
// The pool runs whole fragments through the engine concurrently, one core
// each, and the scanner reads the next fragment while they run; a pool of
// one hands the engine every worker instead. The pool holds no more
// fragments than fit half of the node's usable memory by footprint (see
// ResidentBytes), so a data set much larger than cfg.Memory still runs —
// and runs faster than a thrashing native execution.
//
// Fragments complete out of order, but the merge folds them in scan order,
// so non-commutative merge functions (ConcatMerge) stay deterministic.
//
// A partitioned run recycles each fragment's buffer once the engine has
// returned from it, so the scanner reads later fragments into the same
// memory; input is read once, straight into those buffers, and needs no
// buffering of its own.
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
	pool := poolSize(cfg, opts.FragmentSize, spec.FootprintFactor)
	engSpec := unordered(spec)
	engCfg := cfg
	if pool > 1 {
		// One core per fragment: the pool supplies the parallelism, each
		// engine run keeps to its own core.
		engCfg.Workers = 1
	}

	type scanned struct {
		serial int
		frag   []byte
		err    error
	}
	type output struct {
		serial int
		pairs  []mapreduce.Pair[K, R]
		stats  mapreduce.Stats
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Scan stage: a producer goroutine owns the Scanner and keeps one
	// prefetched fragment in flight beyond what the pool holds.
	fragCh := make(chan scanned, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		defer close(fragCh)
		sc := NewScanner(input, opts)
		for serial := 0; ; serial++ {
			frag, err := sc.Next()
			if err == io.EOF {
				return
			}
			it := scanned{serial: serial, frag: frag, err: err}
			select {
			case fragCh <- it:
				if err != nil {
					return
				}
			case <-runCtx.Done():
				return
			}
		}
	}()

	// Engine pool: each worker runs whole fragments through the engine.
	outCh := make(chan output)
	var wwg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for it := range fragCh {
				if it.err != nil {
					fail(it.err)
					return
				}
				if runCtx.Err() != nil {
					return
				}
				fragRes, err := mapreduce.Run(runCtx, engCfg, engSpec, it.frag)
				if opts.FragmentSize > 0 {
					// Safe: nothing keeps a byte of the fragment past
					// mapreduce.Run (see mapreduce.Spec.Map). A native
					// fragment is the whole input, not a pool buffer.
					recycleFrag(it.frag)
				}
				if err != nil {
					fail(fmt.Errorf("partition: fragment %d: %w", it.serial+1, err))
					return
				}
				select {
				case outCh <- output{serial: it.serial, pairs: fragRes.Pairs, stats: fragRes.Stats}:
				case <-runCtx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wwg.Wait()
		close(outCh)
	}()

	// Ordered merge, on the calling goroutine: outputs are drained as they
	// complete (a worker never wedges on a send) and folded in serial
	// order via a reorder buffer, which can hold at most pool-1 outputs —
	// each worker has at most one finished output in flight.
	acc := newShardedAcc[K, R](cfg, merge)
	res := &Result[K, R]{}
	pending := make(map[int]output)
	next := 0
	for f := range outCh {
		pending[f.serial] = f
		for {
			g, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			res.Fragments++
			accumulateStats(&res.Stats, g.stats)
			acc.fold(g.pairs)
		}
	}
	acc.close()
	// The scanner reads input until it exits, which on a cancelled run can
	// be after the workers have gone. Wait for it, so the caller may close
	// input as soon as Run returns.
	<-scanDone
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	var strat mapreduce.MergeStrategy
	res.Pairs, strat = acc.collect(spec.Less)
	if spec.Less != nil {
		res.Stats.MergeStrategy = strat.String()
	}
	res.Stats.UniqueKeys = len(res.Pairs)
	return res, nil
}

// poolSize is how many fragments Run keeps in the engine at once: one per
// worker, but no more than ResidentBytes admits on a node with a memory
// accountant, and one in native mode, where the whole input is the only
// fragment.
func poolSize(cfg mapreduce.Config, fragmentSize int64, footprintFactor float64) int {
	if fragmentSize <= 0 {
		return 1
	}
	pool := cfg.EffectiveWorkers()
	if cfg.Memory != nil {
		fit := ResidentBytes(cfg.Memory.Config(), fragmentSize, footprintFactor) / fragmentSize
		pool = int(min(int64(pool), fit))
	}
	return pool
}

// ResidentBytes is the most input a partitioned run holds in the engine at
// once on a node with memory mem: as many fragments as fragmentBudget
// admits, and never less than one. The scheduler's footprint estimate
// charges the same figure.
func ResidentBytes(mem memsim.Config, fragmentSize int64, footprintFactor float64) int64 {
	return max(fragmentSize, fragmentBudget(mem, footprintFactor))
}

// fragmentBudget is the input whose whole footprint fills half of mem's
// usable RAM, leaving the rest for the runtime itself. AutoFragmentSize
// sizes one fragment to fill it; Run fits as many fragments into it as it
// can.
func fragmentBudget(mem memsim.Config, footprintFactor float64) int64 {
	return int64(float64(mem.Usable()) / (2 * mapreduce.EffectiveFootprint(footprintFactor)))
}

// AutoFragmentSize picks a fragment size for a node's memory configuration
// and a workload's footprint factor — the "automatically determined by the
// runtime system" path of §IV-C: one fragment fills the fragment budget.
func AutoFragmentSize(mem memsim.Config, footprintFactor float64) int64 {
	// Floor against pathological fragment counts; 4 KiB still lets
	// deliberately tiny test nodes partition meaningfully.
	return max(fragmentBudget(mem, footprintFactor), 4<<10)
}

// unordered returns spec without its key ordering, for the per-fragment
// engine runs: the driver folds fragment outputs into a hash accumulator
// and sorts once at the end, so a per-fragment key sort and k-way merge
// would order keys only for the accumulator to discard the order. Each
// key's fragment values still fold in scan order, so non-commutative
// merges (ConcatMerge) are unaffected.
func unordered[K comparable, V any, R any](spec mapreduce.Spec[K, V, R]) mapreduce.Spec[K, V, R] {
	spec.Less = nil
	return spec
}

// accumulateStats folds one fragment's engine statistics into the run
// total. Counters and times sum; per-fragment UniqueKeys sums into
// FragmentKeys (Run overwrites UniqueKeys with the post-merge key count at
// the end, so the per-fragment counts would otherwise be lost and the
// bench tables would under-report shuffle work).
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

// shardedAcc is the merge stage's accumulator: key-hash-sharded maps, each
// owned by exactly one goroutine, so fragment outputs fold without locks.
// fold and close must be called from a single goroutine (the dispatcher);
// the parallelism is inside — one folder goroutine per shard.
type shardedAcc[K comparable, R any] struct {
	merge  MergeFunc[R]
	seed   maphash.Seed
	shards []map[K]R
	chans  []chan []mapreduce.Pair[K, R]
	wg     sync.WaitGroup
	mask   uint64
	open   bool
}

func newShardedAcc[K comparable, R any](cfg mapreduce.Config, merge MergeFunc[R]) *shardedAcc[K, R] {
	n := cfg.EffectiveWorkers()
	if n > maxMergeShards {
		n = maxMergeShards
	}
	// Round down to a power of two so shard selection is a mask.
	shards := 1
	for shards*2 <= n {
		shards *= 2
	}
	return &shardedAcc[K, R]{
		merge:  merge,
		seed:   maphash.MakeSeed(),
		shards: make([]map[K]R, shards),
		chans:  make([]chan []mapreduce.Pair[K, R], shards),
		mask:   uint64(shards - 1),
	}
}

// fold deals one fragment's pairs to the shard workers. The first call
// pre-sizes every shard from the fragment's cardinality — the best
// available estimate of per-fragment key counts — and starts the workers.
// Each shard worker folds batches in arrival order, which is fragment
// serial order, so non-commutative merges stay deterministic.
func (a *shardedAcc[K, R]) fold(pairs []mapreduce.Pair[K, R]) {
	if len(pairs) == 0 {
		return
	}
	if !a.open {
		hint := len(pairs)/len(a.shards) + 1
		for i := range a.shards {
			a.shards[i] = make(map[K]R, 2*hint)
			a.chans[i] = make(chan []mapreduce.Pair[K, R], 1)
			a.wg.Add(1)
			go func(shard map[K]R, ch <-chan []mapreduce.Pair[K, R]) {
				defer a.wg.Done()
				for batch := range ch {
					for _, p := range batch {
						if prev, ok := shard[p.Key]; ok {
							shard[p.Key] = a.merge(prev, p.Value)
						} else {
							shard[p.Key] = p.Value
						}
					}
				}
			}(a.shards[i], a.chans[i])
		}
		a.open = true
	}
	if len(a.chans) == 1 {
		a.chans[0] <- pairs
		return
	}
	buckets := make([][]mapreduce.Pair[K, R], len(a.chans))
	per := len(pairs)/len(a.chans) + 1
	for _, p := range pairs {
		s := maphash.Comparable(a.seed, p.Key) & a.mask
		if buckets[s] == nil {
			buckets[s] = make([]mapreduce.Pair[K, R], 0, per)
		}
		buckets[s] = append(buckets[s], p)
	}
	for i, b := range buckets {
		if len(b) > 0 {
			a.chans[i] <- b
		}
	}
}

// close stops the shard workers and waits for every in-flight batch to be
// folded. It must be called before collect.
func (a *shardedAcc[K, R]) close() {
	if !a.open {
		return
	}
	for _, ch := range a.chans {
		close(ch)
	}
	a.wg.Wait()
	a.open = false
}

// collect flattens the shards into the final pair slice. With an ordering,
// each shard is sorted concurrently and the sorted shards are k-way merged
// — the same adaptive merge machinery as the engine's final stage, whose
// chosen strategy is returned for the driver's stats.
func (a *shardedAcc[K, R]) collect(less func(x, y K) bool) ([]mapreduce.Pair[K, R], mapreduce.MergeStrategy) {
	if less == nil {
		total := 0
		for _, s := range a.shards {
			total += len(s)
		}
		out := make([]mapreduce.Pair[K, R], 0, total)
		for _, s := range a.shards {
			for k, v := range s {
				out = append(out, mapreduce.Pair[K, R]{Key: k, Value: v})
			}
		}
		return out, mapreduce.MergeCopy
	}
	runs := make([][]mapreduce.Pair[K, R], len(a.shards))
	var wg sync.WaitGroup
	for i, s := range a.shards {
		run := make([]mapreduce.Pair[K, R], 0, len(s))
		for k, v := range s {
			run = append(run, mapreduce.Pair[K, R]{Key: k, Value: v})
		}
		runs[i] = run
		wg.Add(1)
		go func(run []mapreduce.Pair[K, R]) {
			defer wg.Done()
			sort.Slice(run, func(x, y int) bool { return less(run[x].Key, run[y].Key) })
		}(run)
	}
	wg.Wait()
	return mapreduce.MergeSortedStats(runs, less)
}
