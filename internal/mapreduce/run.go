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
	chunks := split(input, cfg.taskSize(len(input), spec.Combine != nil))
	res.Stats.SplitTime = time.Since(start)
	res.Stats.MapTasks = len(chunks)

	workers := cfg.workers()
	numReducers := cfg.reducers()
	j := &job[K, V, R]{spec: spec, numReducers: numReducers, maxRetries: cfg.retries()}
	if workers == 1 && numReducers == 1 && len(chunks) == 1 {
		return j.runOneTask(ctx, chunks[0], res)
	}

	// Map phase: dynamic task scheduling over a shared channel. Each
	// worker folds a task's emissions into task-local records (no locking
	// on the hot path, as in Phoenix) and, on task success, into its own
	// records of every key it has mapped: its first task's records become
	// them outright, later tasks splice in. Once the feed ends, the worker
	// combines and deals its records to the reduce partitions, hashing each
	// key once.
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
	// Every worker's records go back to their pools when the run ends,
	// however it ends: the reduce reads them all.
	defer func() {
		for _, st := range states {
			if st.acc != nil {
				st.acc.release()
			}
		}
	}()
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		st := &mapWorker[K, V]{free: getFreeList[V]()}
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
	// The workers that mapped anything.
	var active []*mapWorker[K, V]
	for _, st := range states {
		res.Stats.PairsEmitted += st.emitted
		if st.acc != nil {
			active = append(active, st)
		}
	}
	res.Stats.MapTime = time.Since(start)

	// Reduce phase: one task per partition (reducePartition), which first
	// joins the workers' records of the partition and key-sorts them (the
	// shuffle, tracked separately in Stats.ShuffleTime), then reduces
	// every key.
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
				out, keys, shuffle, err := j.reducePartition(active, p)
				shuffleNanos.Add(int64(shuffle))
				if err != nil {
					fail(err)
					return
				}
				uniq[p] = keys
				partOut[p] = out
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

// mapWorker is one map worker's shuffle-side state: the records of every
// key its tasks emitted and, once it has mapped its last task, those
// records dealt to the reduce partitions; a value-buffer free list; and
// its raw emission count.
type mapWorker[K comparable, V any] struct {
	acc     *taskRecords[K, V] // nil until a task succeeds
	parts   [][]*kvrec[K, V]
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

// reducePartition reduces partition p of the workers that mapped
// anything. The first worker's records of the partition are its keys;
// every other worker's record of the partition joins the first worker's
// record of its key, found through that worker's index (read by every
// reduce task, written by none), or, for a key the first worker never
// saw, through a map of the task's own. It returns the output, its key
// count, and the time spent joining and key-sorting (the shuffle).
func (j *job[K, V, R]) reducePartition(active []*mapWorker[K, V], p int) ([]Pair[K, R], int, time.Duration, error) {
	if len(active) == 0 {
		return nil, 0, 0, nil
	}
	start := time.Now()
	home := active[0].acc.index
	recs := active[0].parts[p]
	var extra map[K]*kvrec[K, V]
	for _, st := range active[1:] {
		for _, e := range st.parts[p] {
			if cur, ok := home[e.key]; ok {
				cur.vs = append(cur.vs, e.vs...)
			} else if cur, ok := extra[e.key]; ok {
				cur.vs = append(cur.vs, e.vs...)
			} else {
				if extra == nil {
					extra = make(map[K]*kvrec[K, V])
				}
				extra[e.key] = e
				recs = append(recs, e)
			}
		}
	}
	if less := j.spec.Less; less != nil {
		sort.Slice(recs, func(a, b int) bool { return less(recs[a].key, recs[b].key) })
	}
	shuffle := time.Since(start)
	out := make([]Pair[K, R], 0, len(recs))
	for _, e := range recs {
		rv, err := j.reduce(e.key, e.vs)
		if err != nil {
			return nil, 0, shuffle, err
		}
		out = append(out, Pair[K, R]{Key: e.key, Value: rv})
	}
	return out, len(recs), shuffle, nil
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
			e.key, e.vs = k, st.getBuf()
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

// splice folds a finished task's records into the worker's: the first
// task's records become the worker's outright; a later task's key new to
// the worker adopts the task's value run (move, no copy), and a known key
// appends and recycles the run. It returns the records for the worker's
// next task: recs, emptied, or nil when they became the worker's.
func (mp *mapPhase[K, V, R]) splice(recs *taskRecords[K, V]) *taskRecords[K, V] {
	st := recs.st
	st.emitted += recs.emitted
	if st.acc == nil {
		st.acc = recs
		return nil
	}
	acc := st.acc
	recs.arena.each(func(e *kvrec[K, V]) {
		cur, ok := acc.index[e.key]
		if !ok {
			cur = acc.arena.alloc()
			*cur = *e
			acc.index[e.key] = cur
			return
		}
		cur.vs = append(cur.vs, e.vs...)
		if mp.spec.Combine != nil && len(cur.vs) >= streamFoldLen {
			cur.vs = mp.spec.Combine(e.key, cur.vs)
		}
		st.putBuf(e.vs)
	})
	recs.reset()
	return recs
}

// deal combines the worker's records (Phoenix's combiner over the
// sub-threshold remainders the map tasks left) and deals them to the
// reduce partitions, in first-emission order.
func (mp *mapPhase[K, V, R]) deal(st *mapWorker[K, V]) {
	st.parts = make([][]*kvrec[K, V], mp.numReducers)
	per := len(st.acc.index)/mp.numReducers + 1
	st.acc.arena.each(func(e *kvrec[K, V]) {
		if mp.spec.Combine != nil && len(e.vs) > 1 {
			e.vs = mp.spec.Combine(e.key, e.vs)
		}
		p := mp.partition(e.key)
		if st.parts[p] == nil {
			st.parts[p] = make([]*kvrec[K, V], 0, per)
		}
		st.parts[p] = append(st.parts[p], e)
	})
}

// mapTasks runs one worker's share of the map tasks. Each task folds into
// task records during the map call itself (compacted by the combiner when
// the spec has one), which are discarded on a failed attempt, preserving
// retry idempotence, and spliced into the worker's records on success.
func (mp *mapPhase[K, V, R]) mapTasks(st *mapWorker[K, V], taskCh <-chan int) {
	var recs *taskRecords[K, V]
	defer func() {
		if recs != nil {
			recs.release()
		}
	}()
	for idx := range taskCh {
		if ctxErr(mp.ctx) != nil {
			return
		}
		if recs == nil {
			recs = newTaskRecords(st, mp.spec.Combine)
		}
		if err := mp.mapTask(recs, mp.chunks[idx]); err != nil {
			mp.fail(err)
			return
		}
		recs = mp.splice(recs)
	}
	if st.acc != nil && ctxErr(mp.ctx) == nil {
		mp.deal(st)
	}
}
