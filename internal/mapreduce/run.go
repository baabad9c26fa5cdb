package mapreduce

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// streamFoldLen is how many values may pile up behind one key of a task
// record before the combiner folds them. Folding every
// emission would call Combine once per pair; folding only at task flush
// would stage every raw pair again. 64 amortizes the call without letting
// the buffer grow meaningfully.
const streamFoldLen = 64

// Run executes the computation described by spec over input on the node
// described by cfg. It returns the final pairs (globally sorted when
// spec.Less is set) together with run statistics.
//
// Run fails with memsim.ErrOutOfMemory (wrapped) when cfg.Memory cannot
// admit the estimated footprint, with ctx.Err() when cancelled, and with a
// task error when a map or reduce task keeps failing past its retry budget.
func Run[K comparable, V any, R any](ctx context.Context, cfg Config, spec Spec[K, V, R], input []byte) (*Result[K, R], error) {
	if spec.Map == nil || spec.Reduce == nil {
		return nil, ErrSpecIncomplete
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Memory admission (the native-Phoenix wall): both the input and the
	// emitted intermediate pairs live in memory for the whole run.
	if cfg.Memory != nil {
		h, err := cfg.Memory.ReserveHandle(int64(float64(len(input)) * EffectiveFootprint(spec.FootprintFactor)))
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %q: %w", spec.Name, err)
		}
		defer h.Release()
	}

	res := &Result[K, R]{}
	res.Stats.InputBytes = int64(len(input))

	// Split phase.
	start := time.Now()
	split := spec.Split
	if split == nil {
		split = FixedSplitter
	}
	chunks := split(input, cfg.chunkSize(len(input)))
	res.Stats.SplitTime = time.Since(start)
	res.Stats.MapTasks = len(chunks)

	workers := cfg.workers()
	numReducers := cfg.reducers()
	j := &job[K, V, R]{spec: spec, numReducers: numReducers, maxRetries: cfg.retries()}
	if workers == 1 && numReducers == 1 && len(chunks) == 1 {
		return j.runOneTask(ctx, chunks[0], res)
	}

	// Map phase: dynamic task scheduling over a shared channel. Each
	// worker accumulates one task-local keyed map (no locking on the hot
	// path, as in Phoenix) and splices it into its per-partition buffers
	// on task success — partition hashing happens once per distinct key
	// per task, not once per emission.
	start = time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	mp := &mapPhase[K, V, R]{job: j, ctx: runCtx, chunks: chunks, fail: fail}

	states := make([]*mapWorker[K, V], workers)
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		st := &mapWorker[K, V]{parts: make([]map[K][]V, numReducers), free: getFreeList[V]()}
		for r := range st.parts {
			st.parts[r] = getPartMap[K, V]()
		}
		states[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// Retire the worker's buffer free list into the
				// process-wide pool for the next job.
				fl := st.free
				st.free = nil
				putFreeList(fl)
			}()
			mp.mapTasks(st, taskCh)
		}()
	}
feed:
	for i := range chunks {
		select {
		case taskCh <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Worker-local combine (Phoenix combiner) before the shuffle. The map
	// tasks already fold during the map call; this pass only compacts the
	// sub-threshold remainders they left behind.
	if spec.Combine != nil {
		var cwg sync.WaitGroup
		for _, st := range states {
			cwg.Add(1)
			go func(st *mapWorker[K, V]) {
				defer cwg.Done()
				for _, part := range st.parts {
					for k, vs := range part {
						if len(vs) > 1 {
							part[k] = spec.Combine(k, vs)
						}
					}
				}
			}(st)
		}
		cwg.Wait()
	}
	for _, st := range states {
		res.Stats.PairsEmitted += st.emitted
	}
	res.Stats.MapTime = time.Since(start)

	// Reduce phase: one task per partition; each task first merges the
	// worker-local buffers for its partition and key-sorts (the shuffle,
	// tracked separately in Stats.ShuffleTime), then reduces every key.
	start = time.Now()
	partOut := make([][]Pair[K, R], numReducers)
	uniq := make([]int, numReducers)
	var shuffleNanos atomic.Int64
	redCh := make(chan int)
	var rwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for p := range redCh {
				if ctxErr(runCtx) != nil {
					return
				}
				shStart := time.Now()
				// The first worker's buffer becomes the shuffle map
				// directly (zero copying for single-worker runs); the
				// remaining workers fold in, moving each value run on
				// its key's first appearance.
				merged := states[0].parts[p]
				states[0].parts[p] = nil
				if merged == nil {
					merged = make(map[K][]V)
				}
				for _, st := range states[1:] {
					donor := st.parts[p]
					for k, vs := range donor {
						if cur, ok := merged[k]; ok {
							merged[k] = append(cur, vs...)
						} else {
							merged[k] = vs
						}
					}
					st.parts[p] = nil
					putPartMap(donor) // contents moved; recycle the buckets
				}
				uniq[p] = len(merged)
				keys := make([]K, 0, len(merged))
				for k := range merged {
					keys = append(keys, k)
				}
				if spec.Less != nil {
					sort.Slice(keys, func(i, j int) bool { return spec.Less(keys[i], keys[j]) })
				}
				shuffleNanos.Add(int64(time.Since(shStart)))
				out := make([]Pair[K, R], 0, len(keys))
				for _, k := range keys {
					rv, err := j.reduce(k, merged[k])
					if err != nil {
						fail(err)
						return
					}
					out = append(out, Pair[K, R]{Key: k, Value: rv})
				}
				partOut[p] = out
				putPartMap(merged) // reduced; keys live on in out, buckets recycle
			}
		}()
	}
feedReduce:
	for p := 0; p < numReducers; p++ {
		select {
		case redCh <- p:
		case <-runCtx.Done():
			break feedReduce
		}
	}
	close(redCh)
	rwg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res.Stats.ReduceTasks = numReducers
	res.Stats.TaskRetries = int(j.retries.Load())
	for _, u := range uniq {
		res.Stats.UniqueKeys += u
	}
	res.Stats.FragmentKeys = res.Stats.UniqueKeys
	res.Stats.ShuffleTime = time.Duration(shuffleNanos.Load())
	res.Stats.ReduceTime = time.Since(start)

	// Merge phase: concatenate, or k-way merge the sorted partitions into
	// a globally sorted result (Phoenix's final merge stage), with the
	// strategy picked from the fan-in (see MergeStrategyFor).
	start = time.Now()
	if spec.Less == nil {
		total := 0
		for _, po := range partOut {
			total += len(po)
		}
		res.Pairs = make([]Pair[K, R], 0, total)
		for _, po := range partOut {
			res.Pairs = append(res.Pairs, po...)
		}
	} else {
		var strat MergeStrategy
		res.Pairs, strat = MergeSortedStats(partOut, spec.Less)
		res.Stats.MergeStrategy = strat.String()
	}
	res.Stats.MergeTime = time.Since(start)
	return res, nil
}

// mapWorker is one map worker's shuffle-side state: per-partition keyed
// buffers, a value-buffer free list, and its raw emission count.
type mapWorker[K comparable, V any] struct {
	parts   []map[K][]V
	free    [][]V
	emitted int64
}

// job bundles the per-run constants that map and reduce tasks share.
type job[K comparable, V any, R any] struct {
	spec        Spec[K, V, R]
	numReducers int
	maxRetries  int
	retries     atomic.Int64
}

// try runs f, a task attempt, retrying it up to maxRetries times; undo,
// when set, clears a failed attempt's partial state first. The last
// failure comes back as the phase's task error.
func (j *job[K, V, R]) try(phase string, f func() error, undo func()) error {
	for attempt := 0; ; attempt++ {
		err := guard(f)
		if err == nil {
			return nil
		}
		if undo != nil {
			undo()
		}
		if attempt >= j.maxRetries {
			return &taskError{phase: phase, spec: j.spec.Name, err: err}
		}
		j.retries.Add(1)
	}
}

// reduce folds one key's values with spec.Reduce, with retries.
func (j *job[K, V, R]) reduce(k K, vs []V) (R, error) {
	var rv R
	err := j.try("reduce", func() error {
		var e error
		rv, e = j.spec.Reduce(k, vs)
		return e
	}, nil)
	return rv, err
}

// mapTask runs Map over chunk into recs, with retries. A failed attempt's
// records are discarded, so a retry starts from a clean slate.
func (j *job[K, V, R]) mapTask(recs *taskRecords[K, V], chunk []byte) error {
	return j.try("map", func() error { return j.spec.Map(chunk, recs.emit) }, recs.discard)
}

// runOneTask is Run for a single worker whose input split into one chunk
// — every fragment of a partition.Run pool wider than one. The task's
// records are then the run's whole intermediate state, so each one
// reduces straight from its record, in first-emission order, and the
// output is sorted by Less only when the spec orders keys: no partition
// map, post-map combine pass, reducer goroutine or k-way merge.
func (j *job[K, V, R]) runOneTask(ctx context.Context, chunk []byte, res *Result[K, R]) (*Result[K, R], error) {
	st := &mapWorker[K, V]{free: getFreeList[V]()}
	recs := newTaskRecords(st, j.spec.Combine)
	defer func() {
		recs.release()
		putFreeList(st.free)
	}()

	start := time.Now()
	if err := j.mapTask(recs, chunk); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res.Stats.MapTime = time.Since(start)

	// The value runs handed to Reduce are never recycled: a Reduce may
	// return its run as the result (string match does).
	start = time.Now()
	out := make([]Pair[K, R], 0, len(recs.index))
	var err error
	recs.arena.each(func(e *kvrec[K, V]) {
		if err != nil {
			return
		}
		var rv R
		rv, err = j.reduce(e.key, e.vs)
		out = append(out, Pair[K, R]{Key: e.key, Value: rv})
	})
	if err != nil {
		return nil, err
	}
	if less := j.spec.Less; less != nil {
		shStart := time.Now()
		sort.Slice(out, func(a, b int) bool { return less(out[a].Key, out[b].Key) })
		res.Stats.ShuffleTime = time.Since(shStart)
		res.Stats.MergeStrategy = MergeCopy.String()
	}
	res.Stats.ReduceTime = time.Since(start)

	res.Pairs = out
	res.Stats.ReduceTasks = 1
	res.Stats.PairsEmitted = recs.emitted
	res.Stats.UniqueKeys = len(out)
	res.Stats.FragmentKeys = len(out)
	res.Stats.TaskRetries = int(j.retries.Load())
	return res, nil
}

// mapPhase is the multi-task map phase of one run: the job plus the task
// list and the run's cancellation.
type mapPhase[K comparable, V any, R any] struct {
	*job[K, V, R]
	ctx    context.Context
	chunks [][]byte
	fail   func(error)
}

// partition maps a key to its reduce partition. Single-reducer runs skip
// hashing entirely.
func (mp *mapPhase[K, V, R]) partition(k K) int {
	if mp.numReducers == 1 {
		return 0
	}
	return partitionOf(k, mp.numReducers, mp.spec.PartitionFn)
}

// taskRecords holds one map task's emissions folded by key: a record per
// distinct key, dealt from a pooled arena in first-emission order and
// found through a pooled index, holding the key's value run. No raw pair
// is ever staged; with a combiner, a run is compacted as it crosses
// streamFoldLen.
type taskRecords[K comparable, V any] struct {
	st      *mapWorker[K, V] // supplies and takes back value runs
	index   map[K]*kvrec[K, V]
	arena   *recArena[K, V]
	emitted int64
	emit    func(K, V)
}

func newTaskRecords[K comparable, V any](st *mapWorker[K, V], combine func(K, []V) []V) *taskRecords[K, V] {
	index, arena := getTaskMap[K, V](), getArena[K, V]()
	r := &taskRecords[K, V]{st: st, index: index, arena: arena}
	r.emit = func(k K, v V) {
		e, ok := index[k]
		if !ok {
			e = arena.alloc()
			e.key = k
			e.vs = st.getBuf()
			index[k] = e
		}
		e.vs = append(e.vs, v)
		if combine != nil && len(e.vs) >= streamFoldLen {
			e.vs = combine(k, e.vs)
		}
		r.emitted++
	}
	return r
}

// reset forgets every record without recycling a value run: each has been
// moved elsewhere or handed to Reduce.
func (r *taskRecords[K, V]) reset() {
	clear(r.index)
	r.arena.reset()
	r.emitted = 0
}

// discard drops a failed attempt's records, recycling their value runs.
func (r *taskRecords[K, V]) discard() {
	r.arena.each(func(e *kvrec[K, V]) { r.st.putBuf(e.vs) })
	r.reset()
}

// release returns the index and the arena to their pools.
func (r *taskRecords[K, V]) release() {
	putTaskMap(r.index)
	putArena(r.arena)
}

// splice folds a finished task's records into the worker's per-partition
// buffers: a key new to its partition adopts the task's value run
// outright (move, no copy); a known key appends and recycles the run.
// Partition hashing happens here — once per distinct key per task.
func (mp *mapPhase[K, V, R]) splice(recs *taskRecords[K, V]) {
	st := recs.st
	recs.arena.each(func(e *kvrec[K, V]) {
		p := mp.partition(e.key)
		dst := st.parts[p]
		if cur, ok := dst[e.key]; ok {
			cur = append(cur, e.vs...)
			if mp.spec.Combine != nil && len(cur) >= streamFoldLen {
				cur = mp.spec.Combine(e.key, cur)
			}
			dst[e.key] = cur
			st.putBuf(e.vs)
		} else {
			dst[e.key] = e.vs
		}
	})
	st.emitted += recs.emitted
	recs.reset()
}

// mapTasks runs one worker's share of the map tasks. Each task folds into
// task records during the map call itself (compacted by the combiner when
// the spec has one), which are discarded on a failed attempt, preserving
// retry idempotence, and spliced into the worker's buffers on success.
func (mp *mapPhase[K, V, R]) mapTasks(st *mapWorker[K, V], taskCh <-chan int) {
	recs := newTaskRecords(st, mp.spec.Combine)
	defer recs.release()
	for idx := range taskCh {
		if ctxErr(mp.ctx) != nil {
			return
		}
		if err := mp.mapTask(recs, mp.chunks[idx]); err != nil {
			mp.fail(err)
			return
		}
		mp.splice(recs)
	}
}
