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
//
//mcsdlint:allow deadexport -- seam: the partition and workloads tests compare runs as maps
func (r *Result[K, R]) Map() map[K]R {
	m := make(map[K]R, len(r.Pairs))
	for _, p := range r.Pairs {
		m[p.Key] = p.Value
	}
	return m
}

// Fragment is one fragment of a run, as Each hands it to its callback.
type Fragment struct {
	// Data is the fragment's bytes. They are valid only until the callback
	// returns: Each then recycles the buffer for a later fragment.
	Data []byte
	// Serial is the fragment's position in the stream, from 0.
	Serial int
	// Worker is the pool worker running the fragment, in
	// [0, cfg.EffectiveWorkers()). A worker runs one fragment at a time.
	Worker int
	// Cores is how many cores the callback may use: every worker's in a
	// pool of one, where no other fragment runs beside this one, and one
	// otherwise.
	Cores int
	// Last reports that the fragment ends the stream: no fragment follows
	// it, so once the fragments before it finish, the pool's other workers
	// idle until it does.
	Last bool
}

// Each is the fragment driver: it runs fn over every fragment of the
// stream input, cut at opts.FragmentSize (extended by the integrity
// check), and returns how many fragments there were:
//
//	scan --fragCh--> pool (poolSize workers, fn on each)
//
// A scanner goroutine reads the next fragment while the pool runs, and the
// pool holds no more fragments than fit half of the node's usable memory
// by footprint (see ResidentBytes), so a data set much larger than
// cfg.Memory still runs — and runs faster than a thrashing native
// execution. On a node with cfg.Memory, each fragment reserves
// footprint × its length (mapreduce.EffectiveFootprint) while fn runs; a
// fragment that does not fit fails the run with memsim.ErrOutOfMemory, the
// native-Phoenix wall of §IV-B.
//
// The fragment that ends the stream comes with Last set. The scanner
// knows it once it has seen EOF, which a stream that ends on a cut
// reports only on the read after its last byte: when a cut falls on the
// last byte read, the scanner reads on before it hands the fragment over,
// and what it reads opens the next fragment. So on a live stream whose
// reads end on record boundaries, a whole fragment waits for the
// stream's next byte (or its end) before fn gets it; an error of that
// read fails the run after the fragment has been handed over.
//
// Fragments run concurrently and finish out of order. The first error —
// from the scan, a reservation or fn — cancels the ctx fn was given and is
// returned; a cancelled ctx returns ctx.Err(). Each joins the scanner
// before it returns, so the caller may close input as soon as it does.
//
// A partitioned run recycles each fragment's buffer once fn has returned
// from it, so the scanner reads later fragments into the same memory;
// input is read once, straight into those buffers, and needs no buffering
// of its own.
func Each(
	ctx context.Context,
	cfg mapreduce.Config,
	input io.Reader,
	opts Options,
	footprint float64,
	fn func(ctx context.Context, f Fragment) error,
) (fragments int, err error) {
	pool := poolSize(cfg, opts.FragmentSize, footprint)
	cores := 1
	if pool == 1 {
		cores = cfg.EffectiveWorkers()
	}

	type scanned struct {
		serial int
		frag   []byte
		last   bool
		err    error
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
	scannedAll := 0 // the fragment count, once the scan reached EOF
	go func() {
		defer close(scanDone)
		defer close(fragCh)
		sc := NewScanner(input, opts)
		for serial := 0; ; serial++ {
			frag, err := sc.Next()
			if err == io.EOF {
				scannedAll = serial
				return
			}
			it := scanned{serial: serial, frag: frag, last: sc.last(), err: err}
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

	// run hands one fragment to fn under its memory reservation.
	run := func(f Fragment) error {
		if cfg.Memory != nil {
			h, err := cfg.Memory.ReserveHandle(int64(float64(len(f.Data)) * mapreduce.EffectiveFootprint(footprint)))
			if err != nil {
				return err
			}
			defer h.Release()
		}
		return fn(runCtx, f)
	}

	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range fragCh {
				if it.err != nil {
					fail(it.err)
					return
				}
				if runCtx.Err() != nil {
					return
				}
				err := run(Fragment{Data: it.frag, Serial: it.serial, Worker: w, Cores: cores, Last: it.last})
				if opts.FragmentSize > 0 {
					// Safe: fn keeps no byte of the fragment past its
					// return (see Fragment.Data). A native fragment is the
					// whole input, not a pool buffer.
					recycleFrag(it.frag)
				}
				if err != nil {
					fail(fmt.Errorf("partition: fragment %d: %w", it.serial+1, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	// The scanner reads input until it exits, which on a cancelled run can
	// be after the workers have gone.
	<-scanDone
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return scannedAll, nil
}

// Run executes spec over the stream input in the fragments Each cuts,
// merging per-fragment outputs with merge. This is the extended two-stage
// Phoenix workflow of Fig. 6:
//
//	Partition -> [ Split -> Map -> Sort -> Reduce -> Merge ]* -> Merge
//
// except that the Sort runs once, over the merged result, not per fragment
// (see unordered). Each's pool runs whole fragments through the engine
// concurrently, one core each; a pool of one hands the engine every worker
// instead. So does the fragment that ends the stream, when the spec has a
// Combine: nothing is left to scan once it arrives, so a one-core run of it
// would leave the other cores idle at the end of every job. Without a
// Combine it stays on one core: a multi-worker engine run hands Reduce a
// key's values in the order its workers happened to map them, and a
// one-task run keeps them in input order (string match samples its lines
// in file order). Fragments complete out of order, but the merge folds
// them in scan order, so non-commutative merge functions (ConcatMerge) stay
// deterministic.
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
	engSpec := unordered(spec)

	type output struct {
		serial int
		pairs  []mapreduce.Pair[K, R]
		stats  mapreduce.Stats
	}
	// The pool's workers hand their outputs to the ordered merge below,
	// which drains outCh until Each has returned.
	outCh := make(chan output)
	var eachErr error
	go func() {
		defer close(outCh)
		_, eachErr = Each(ctx, cfg, input, opts, spec.FootprintFactor, func(ctx context.Context, f Fragment) error {
			// Each holds the fragment's memory reservation, and the
			// engine runs on the fragment's cores.
			engCfg := cfg
			engCfg.Memory = nil
			engCfg.Workers = f.Cores
			if f.Last && spec.Combine != nil {
				engCfg.Workers = cfg.EffectiveWorkers()
			}
			fragRes, err := mapreduce.Run(ctx, engCfg, engSpec, f.Data)
			if err != nil {
				return err
			}
			select {
			case outCh <- output{serial: f.Serial, pairs: fragRes.Pairs, stats: fragRes.Stats}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()

	// Ordered merge, on the calling goroutine: outputs are folded in
	// serial order via a reorder buffer, which can hold at most pool-1
	// outputs — each worker has at most one finished output in flight.
	acc := newShardedAcc[K, R](cfg, merge, spec.Less)
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
	if eachErr != nil {
		return nil, eachErr
	}

	var strat mapreduce.MergeStrategy
	res.Pairs, strat = acc.collect()
	if spec.Less != nil {
		res.Stats.MergeStrategy = strat.String()
	}
	res.Stats.UniqueKeys = len(res.Pairs)
	return res, nil
}

// poolSize is how many fragments Each runs at once: one per
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
// sizes one fragment to fill it; Each fits as many fragments into it as it
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
	less   func(x, y K) bool // the final order; nil for none
	seed   maphash.Seed
	shards []*accShard[K, R]
	chans  []chan []mapreduce.Pair[K, R]
	wg     sync.WaitGroup
	mask   uint64
	open   bool
}

// accShard is one shard of the accumulator: its keys' folded values and,
// when the accumulator orders keys, the keys themselves, sorted up to
// sorted and in arrival order after.
type accShard[K comparable, R any] struct {
	vals   map[K]R
	keys   []K
	sorted int
}

func newShardedAcc[K comparable, R any](cfg mapreduce.Config, merge MergeFunc[R], less func(x, y K) bool) *shardedAcc[K, R] {
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
		less:   less,
		seed:   maphash.MakeSeed(),
		shards: make([]*accShard[K, R], shards),
		chans:  make([]chan []mapreduce.Pair[K, R], shards),
		mask:   uint64(shards - 1),
	}
}

// fold deals one fragment's pairs to the shard workers. The first call
// pre-sizes every shard from the fragment's cardinality — the best
// available estimate of per-fragment key counts — and starts the workers.
// Each shard worker folds batches in arrival order, which is fragment
// serial order, so non-commutative merges stay deterministic. A shard
// worker with no batch waiting sorts the keys it has so far: the
// accumulator idles while the stream delivers the next fragment, so the
// final key sort is done by then but for the keys the last fragments
// brought. It merges new keys into the sorted ones only once they number
// a quarter of them, so every merge grows the sorted keys by a quarter
// and a key is merged a bounded number of times, however many fragments
// bring new keys.
func (a *shardedAcc[K, R]) fold(pairs []mapreduce.Pair[K, R]) {
	if len(pairs) == 0 {
		return
	}
	if !a.open {
		hint := len(pairs)/len(a.shards) + 1
		for i := range a.shards {
			sh := &accShard[K, R]{vals: make(map[K]R, 2*hint)}
			a.shards[i] = sh
			a.chans[i] = make(chan []mapreduce.Pair[K, R], 1)
			a.wg.Add(1)
			go func(ch <-chan []mapreduce.Pair[K, R]) {
				defer a.wg.Done()
				for batch := range ch {
					for _, p := range batch {
						if prev, ok := sh.vals[p.Key]; ok {
							sh.vals[p.Key] = a.merge(prev, p.Value)
						} else {
							sh.vals[p.Key] = p.Value
							if a.less != nil {
								sh.keys = append(sh.keys, p.Key)
							}
						}
					}
					if a.less != nil && len(ch) == 0 && 4*(len(sh.keys)-sh.sorted) >= sh.sorted {
						sh.sortKeys(a.less)
					}
				}
			}(a.chans[i])
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

// sortKeys sorts the keys that arrived since the last sort and merges them
// into the sorted ones.
func (sh *accShard[K, R]) sortKeys(less func(x, y K) bool) {
	if sh.sorted == len(sh.keys) {
		return
	}
	head, tail := sh.keys[:sh.sorted], sh.keys[sh.sorted:]
	sort.Slice(tail, func(x, y int) bool { return less(tail[x], tail[y]) })
	if len(head) > 0 {
		merged := make([]K, 0, len(sh.keys))
		for len(head) > 0 && len(tail) > 0 {
			if less(tail[0], head[0]) {
				merged, tail = append(merged, tail[0]), tail[1:]
			} else {
				merged, head = append(merged, head[0]), head[1:]
			}
		}
		sh.keys = append(append(merged, head...), tail...)
	}
	sh.sorted = len(sh.keys)
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
// each shard finishes sorting its keys concurrently and the sorted shards
// are k-way merged — the same adaptive merge machinery as the engine's
// final stage, whose chosen strategy is returned for the driver's stats.
func (a *shardedAcc[K, R]) collect() ([]mapreduce.Pair[K, R], mapreduce.MergeStrategy) {
	if a.less == nil {
		total := 0
		for _, s := range a.shards {
			if s != nil {
				total += len(s.vals)
			}
		}
		out := make([]mapreduce.Pair[K, R], 0, total)
		for _, s := range a.shards {
			if s != nil {
				for k, v := range s.vals {
					out = append(out, mapreduce.Pair[K, R]{Key: k, Value: v})
				}
			}
		}
		return out, mapreduce.MergeCopy
	}
	runs := make([][]mapreduce.Pair[K, R], len(a.shards))
	var wg sync.WaitGroup
	for i, s := range a.shards {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sortKeys(a.less)
			run := make([]mapreduce.Pair[K, R], len(s.keys))
			for j, k := range s.keys {
				run[j] = mapreduce.Pair[K, R]{Key: k, Value: s.vals[k]}
			}
			runs[i] = run
		}()
	}
	wg.Wait()
	return mapreduce.MergeSortedStats(runs, a.less)
}
