package mapreduce

import (
	"context"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// streamFoldLen is how many values may pile up behind one key of a
// streaming-combine buffer before the combiner folds them. Folding every
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
	if (spec.Map == nil && spec.MapBytes == nil) || spec.Reduce == nil {
		return nil, ErrSpecIncomplete
	}
	useBytes := spec.MapBytes != nil
	if useBytes {
		var zk K
		if _, ok := any(zk).(string); !ok {
			return nil, fmt.Errorf("mapreduce: %q: %w", spec.Name, ErrMapBytesKey)
		}
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
		retries  atomic.Int64
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	mp := &mapPhase[K, V, R]{
		ctx:         runCtx,
		spec:        spec,
		chunks:      chunks,
		numReducers: numReducers,
		maxRetries:  cfg.retries(),
		retries:     &retries,
		fail:        fail,
	}

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
			switch {
			case useBytes:
				mp.runBytes(st, taskCh)
			case spec.Combine != nil:
				mp.runStreaming(st, taskCh)
			default:
				mp.runStaged(st, taskCh)
			}
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

	// Worker-local combine (Phoenix combiner) before the shuffle. The
	// streaming path already folds during the map call; this pass only
	// compacts the sub-threshold remainders it left behind.
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
					var rv R
					var err error
					for attempt := 0; ; attempt++ {
						err = guard(func() error {
							var e error
							rv, e = spec.Reduce(k, merged[k])
							return e
						})
						if err == nil {
							break
						}
						if attempt >= cfg.retries() {
							break
						}
						retries.Add(1)
					}
					if err != nil {
						fail(&taskError{phase: "reduce", spec: spec.Name, err: err})
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
	res.Stats.TaskRetries = int(retries.Load())
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

// mapPhase bundles the per-run constants the map workers share.
type mapPhase[K comparable, V any, R any] struct {
	ctx         context.Context
	spec        Spec[K, V, R]
	chunks      [][]byte
	numReducers int
	maxRetries  int
	retries     *atomic.Int64
	fail        func(error)
}

// partition maps a key to its reduce partition. Single-reducer runs (the
// common single-worker shape) skip hashing entirely.
func (mp *mapPhase[K, V, R]) partition(k K) int {
	if mp.numReducers == 1 {
		return 0
	}
	return partitionOf(k, mp.numReducers, mp.spec.PartitionFn)
}

// splice folds a finished task's records into the worker's per-partition
// buffers: a key new to its partition adopts the task's value run
// outright (move, no copy); a known key appends and recycles the run.
// Partition hashing happens here — once per distinct key per task.
func (mp *mapPhase[K, V, R]) splice(st *mapWorker[K, V], task map[K]*kvrec[K, V], arena *recArena[K, V]) {
	arena.each(func(e *kvrec[K, V]) {
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
	clear(task)
	arena.reset()
}

// discard drops a failed attempt's task-local records, recycling their
// value runs, so the retry starts from a clean slate.
func (mp *mapPhase[K, V, R]) discard(st *mapWorker[K, V], task map[K]*kvrec[K, V], arena *recArena[K, V]) {
	arena.each(func(e *kvrec[K, V]) { st.putBuf(e.vs) })
	clear(task)
	arena.reset()
}

// runStreaming is the emit path when the spec has a combiner: emissions
// fold into a task-local record map during the map call itself — no raw
// pair is ever staged — and the combiner compacts each key's run as it
// crosses streamFoldLen. The task-local records are discarded on a failed
// attempt (preserving retry idempotence) and spliced into the worker's
// buffers on success.
func (mp *mapPhase[K, V, R]) runStreaming(st *mapWorker[K, V], taskCh <-chan int) {
	task := getTaskMap[K, V]()
	defer putTaskMap(task)
	arena := getArena[K, V]()
	defer putArena(arena)
	var taskEmitted int64
	emit := func(k K, v V) {
		e, ok := task[k]
		if !ok {
			e = arena.alloc()
			e.key = k
			e.vs = st.getBuf()
			task[k] = e
		}
		e.vs = append(e.vs, v)
		if len(e.vs) >= streamFoldLen {
			e.vs = mp.spec.Combine(k, e.vs)
		}
		taskEmitted++
	}
	for idx := range taskCh {
		if ctxErr(mp.ctx) != nil {
			return
		}
		chunk := mp.chunks[idx]
		var err error
		for attempt := 0; ; attempt++ {
			err = guard(func() error { return mp.spec.Map(chunk, emit) })
			if err == nil {
				break
			}
			mp.discard(st, task, arena)
			taskEmitted = 0
			if attempt >= mp.maxRetries {
				break
			}
			mp.retries.Add(1)
		}
		if err != nil {
			mp.fail(&taskError{phase: "map", spec: mp.spec.Name, err: err})
			return
		}
		mp.splice(st, task, arena)
		st.emitted += taskEmitted
		taskEmitted = 0
	}
}

// runStaged is the emit path when the spec has no combiner: emissions are
// staged per attempt in a pooled buffer and folded into the worker's
// partition buffers only on success, so a retried task cannot leave
// duplicates behind.
func (mp *mapPhase[K, V, R]) runStaged(st *mapWorker[K, V], taskCh <-chan int) {
	staging := getStaging[K, V]()
	defer func() { putStaging(staging) }()
	emit := func(k K, v V) {
		staging = append(staging, Pair[K, V]{Key: k, Value: v})
	}
	for idx := range taskCh {
		if ctxErr(mp.ctx) != nil {
			return
		}
		chunk := mp.chunks[idx]
		var err error
		for attempt := 0; ; attempt++ {
			staging = staging[:0]
			err = guard(func() error { return mp.spec.Map(chunk, emit) })
			if err == nil {
				break
			}
			if attempt >= mp.maxRetries {
				break
			}
			mp.retries.Add(1)
		}
		if err != nil {
			mp.fail(&taskError{phase: "map", spec: mp.spec.Name, err: err})
			return
		}
		for _, kv := range staging {
			p := mp.partition(kv.Key)
			dst := st.parts[p]
			vs, ok := dst[kv.Key]
			if !ok {
				vs = st.getBuf()
			}
			dst[kv.Key] = append(vs, kv.Value)
		}
		st.emitted += int64(len(staging))
	}
}

// runBytes is the zero-copy emit path for string-keyed specs using
// MapBytes: the callback emits keys as byte subslices of the chunk, and
// the runtime interns each distinct key into a string at most once per
// task — a repeated key costs one map probe and zero allocations. The
// generic callbacks are specialized to string once up front (K is
// guaranteed to be string here, so the assertions cannot fail).
func (mp *mapPhase[K, V, R]) runBytes(st *mapWorker[K, V], taskCh <-chan int) {
	var combine func(string, []V) []V
	if mp.spec.Combine != nil {
		combine = any(mp.spec.Combine).(func(string, []V) []V)
	}
	var partFn func(string, int) int
	if mp.spec.PartitionFn != nil {
		partFn = any(mp.spec.PartitionFn).(func(string, int) int)
	}
	parts := make([]map[string][]V, len(st.parts))
	for i, m := range st.parts {
		parts[i] = any(m).(map[string][]V)
	}
	partition := func(k string) int {
		if mp.numReducers == 1 {
			return 0
		}
		if partFn != nil {
			p := partFn(k, mp.numReducers) % mp.numReducers
			if p < 0 {
				p += mp.numReducers
			}
			return p
		}
		return int(maphash.String(hashSeed, k) % uint64(mp.numReducers))
	}

	tbl := getWordTable[V]()
	defer putWordTable(tbl)
	arena := getArena[string, V]()
	defer putArena(arena)
	var taskEmitted int64
	emit := func(kb []byte, v V) {
		h := internHash(kb)
		e := tbl.lookup(kb, h)
		if e == nil {
			e = arena.alloc()
			e.key = string(kb) // the one allocation: intern on first sight
			e.vs = st.getBuf()
			tbl.insert(h, e)
		}
		e.vs = append(e.vs, v)
		if combine != nil && len(e.vs) >= streamFoldLen {
			e.vs = combine(e.key, e.vs)
		}
		taskEmitted++
	}
	discard := func() {
		arena.each(func(e *kvrec[string, V]) { st.putBuf(e.vs) })
		tbl.reset()
		arena.reset()
	}
	for idx := range taskCh {
		if ctxErr(mp.ctx) != nil {
			return
		}
		chunk := mp.chunks[idx]
		var err error
		for attempt := 0; ; attempt++ {
			err = guard(func() error { return mp.spec.MapBytes(chunk, emit) })
			if err == nil {
				break
			}
			discard()
			taskEmitted = 0
			if attempt >= mp.maxRetries {
				break
			}
			mp.retries.Add(1)
		}
		if err != nil {
			mp.fail(&taskError{phase: "map", spec: mp.spec.Name, err: err})
			return
		}
		// Splice by scanning the arena (emission order), not the table.
		arena.each(func(e *kvrec[string, V]) {
			dst := parts[partition(e.key)]
			if cur, ok := dst[e.key]; ok {
				cur = append(cur, e.vs...)
				if combine != nil && len(cur) >= streamFoldLen {
					cur = combine(e.key, cur)
				}
				dst[e.key] = cur
				st.putBuf(e.vs)
			} else {
				dst[e.key] = e.vs
			}
		})
		tbl.reset()
		arena.reset()
		st.emitted += taskEmitted
		taskEmitted = 0
	}
}
