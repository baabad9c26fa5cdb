// Package mapreduce is a Phoenix-style MapReduce runtime for a single
// shared-memory multicore node, reimplementing the runtime the paper embeds
// in its McSD smart-storage nodes (Ranger et al., HPCA'07).
//
// Like Phoenix, the runtime owns thread (goroutine) creation, dynamic task
// scheduling, data partitioning between map and reduce workers, and fault
// recovery of failed tasks; the programmer supplies only functional-style
// Map / Reduce (and optionally Combine, Split, Less) callbacks through a
// Spec. Unlike Hadoop there is no distributed filesystem underneath: input
// is a byte slice in memory and intermediate pairs live in memory, which is
// exactly the property that creates the paper's out-of-core problem
// (handled one level up by internal/partition).
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"time"

	"mcsd/internal/memsim"
)

// Pair is one key/value pair emitted by Map or produced by Reduce.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Spec declares a MapReduce computation. Map and Reduce are required; the
// rest have usable defaults.
type Spec[K comparable, V any, R any] struct {
	// Name labels the computation in errors and stats.
	Name string

	// Split cuts the input into map-task chunks of roughly chunkSize
	// bytes. Nil means fixed-size chunks; use DelimiterSplitter for
	// record-aligned chunks (the paper's word-count splitter).
	Split func(data []byte, chunkSize int) [][]byte

	// Map processes one chunk, emitting intermediate pairs. It runs
	// concurrently on many chunks; emit is safe for the calling goroutine
	// only. A failed map task is retried from scratch, so whatever a Map
	// accumulates before emitting must be local to the call — word count
	// counts its chunk in a call-local table and emits one pair per
	// distinct word.
	//
	// chunk is valid only for the call: the partition driver reads later
	// fragments into the same memory once Run returns. A Map that keeps
	// bytes of its chunk, in a key or a value, must copy them, as string
	// match's string(line) and word count's string keys do.
	Map func(chunk []byte, emit func(K, V)) error

	// Combine optionally folds a key's values worker-locally after the map
	// phase (Phoenix's combiner), shrinking the intermediate footprint.
	// It must be associative and commutative over values.
	Combine func(key K, values []V) []V

	// Reduce folds all values for one key into the final result value.
	// Like Phoenix, the runtime assumes Reduce is a pure function of its
	// inputs: a Reduce that mutates values and then fails will see its own
	// mutations when retried.
	Reduce func(key K, values []V) (R, error)

	// Less optionally orders keys; when set, Results are globally sorted
	// (Phoenix's final merge-sort stage).
	Less func(a, b K) bool

	// PartitionFn optionally assigns keys to reduce partitions (Phoenix's
	// application-controlled partitioner) — e.g. range partitioning so
	// related keys reduce together. Nil means hashing. Out-of-range
	// results are folded back with a modulo.
	PartitionFn func(key K, numReducers int) int

	// FootprintFactor estimates memory footprint as a multiple of input
	// size ("the memory footprint is at least twice of input data size",
	// §IV-B; word count is ~3x, string match ~2x per §V-C). Zero means 2.
	FootprintFactor float64
}

// EffectiveFootprint is the footprint factor charged for a Spec's
// FootprintFactor: zero or negative means 2. The engine, the sequential
// baseline and the partition driver's memory sizing all resolve it here.
func EffectiveFootprint(factor float64) float64 {
	if factor <= 0 {
		return 2
	}
	return factor
}

// Config tunes the runtime for one node.
type Config struct {
	// Workers is the number of concurrent map (and reduce) workers —
	// the core count of the node. Zero means the smaller of GOMAXPROCS
	// and the physical CPU count: workers are CPU-bound, so runnable
	// workers beyond real cores add per-worker shuffle state (and merge
	// work) without adding speed. Phoenix sizes its worker pool the same
	// way — one thread per core.
	Workers int
	// NumReducers is the number of hash partitions of the intermediate
	// key space. Zero means Workers.
	NumReducers int
	// ChunkSize is the map-task granularity in bytes. Zero means
	// max(64 KiB, len(input)/(4*Workers)) — except with a single worker,
	// where there is no load to balance and the input is one task of at
	// most soloTaskMax bytes.
	ChunkSize int
	// Memory, when non-nil, admission-controls the run: the estimated
	// footprint (FootprintFactor x input) is reserved up front and the
	// run fails with memsim.ErrOutOfMemory if it does not fit — the
	// native-Phoenix memory wall of §IV-B.
	Memory *memsim.Accountant
	// MaxTaskRetries is how many times a panicking map/reduce task is
	// retried before the run fails (Phoenix-style fault tolerance).
	// Zero means 2.
	MaxTaskRetries int
}

// EffectiveWorkers is the worker count a zero-value-tolerant Config
// resolves to (see Workers). Drivers that schedule whole engine runs —
// partition.Run sizes its fragment pool with it — use this so their pool
// and the engine agree on what "one core each" means.
func (c Config) EffectiveWorkers() int { return c.workers() }

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	n := runtime.GOMAXPROCS(0)
	if cpus := runtime.NumCPU(); n > cpus {
		n = cpus
	}
	return n
}

func (c Config) reducers() int {
	if c.NumReducers > 0 {
		return c.NumReducers
	}
	return c.workers()
}

// soloTaskMax caps the one map task of a single-worker run. Extra tasks
// buy a single worker nothing — each one re-emits and re-splices the same
// vocabulary — but the engine checks for cancellation only between
// tasks, so a native run over a large input still gets a task boundary
// every soloTaskMax bytes. Partition-driver fragments are smaller than
// this and map as one task.
const soloTaskMax = 8 << 20

func (c Config) chunkSize(inputLen int) int {
	if c.ChunkSize > 0 {
		return c.ChunkSize
	}
	w := c.workers()
	n := inputLen / (4 * w)
	if w == 1 {
		n = min(inputLen, soloTaskMax)
	}
	if n < 64<<10 {
		n = 64 << 10
	}
	return n
}

func (c Config) retries() int {
	if c.MaxTaskRetries > 0 {
		return c.MaxTaskRetries
	}
	return 2
}

// Stats reports what one run did.
//
// When a partitioned driver (internal/partition) aggregates Stats across
// fragments, counters and times are summed per fragment, UniqueKeys is the
// post-merge key count of the whole run (per-fragment values would double
// count keys that recur across fragments), and FragmentKeys preserves the
// per-fragment sum.
type Stats struct {
	MapTasks     int
	ReduceTasks  int
	PairsEmitted int64
	// UniqueKeys is the number of distinct keys in the final output. For a
	// partitioned run this is the merged count, not the per-fragment sum.
	UniqueKeys int
	// FragmentKeys is the sum of per-fragment unique key counts. It equals
	// UniqueKeys for a single native run and exceeds it when fragments of a
	// partitioned run share keys — the gap is the work the fragment merge
	// stage folded away.
	FragmentKeys int
	TaskRetries  int
	InputBytes   int64
	SplitTime    time.Duration
	MapTime      time.Duration
	// ShuffleTime is the time reduce tasks spent merging worker-local
	// buffers and sorting keys, summed across tasks. Reduce tasks run
	// concurrently, so this is CPU-style time: it is contained in the
	// ReduceTime wall clock and can exceed it on a multicore node. It is
	// deliberately excluded from Total.
	ShuffleTime time.Duration
	ReduceTime  time.Duration
	MergeTime   time.Duration
	// MergeStrategy is the k-way merge strategy the final merge stage
	// chose (see MergeStrategyFor): runs below the measured crossover use
	// the linear tournament, larger fans the tree merge, and large
	// multicore merges the range-split parallel merge. Empty when the
	// run had no ordering (concatenation).
	MergeStrategy string
}

// Total returns the summed phase wall time. ShuffleTime is a component of
// ReduceTime, not an additional phase, so it is not added here.
func (s Stats) Total() time.Duration {
	return s.SplitTime + s.MapTime + s.ReduceTime + s.MergeTime
}

// Result is the output of a run: final pairs (sorted iff Spec.Less was set)
// plus run statistics.
type Result[K comparable, R any] struct {
	Pairs []Pair[K, R]
	Stats Stats
}

// Map returns the results as a map. It is a convenience for tests and
// callers that do not care about order; duplicate keys (impossible in a
// well-formed run) keep the last value.
func (r *Result[K, R]) Map() map[K]R {
	m := make(map[K]R, len(r.Pairs))
	for _, p := range r.Pairs {
		m[p.Key] = p.Value
	}
	return m
}

// ErrSpecIncomplete reports a Spec missing Map or Reduce.
var ErrSpecIncomplete = errors.New("mapreduce: spec requires Map and Reduce")

// taskError wraps a recovered panic or returned error from a user callback.
type taskError struct {
	phase string
	spec  string
	err   error
}

func (e *taskError) Error() string {
	return fmt.Sprintf("mapreduce: %s task failed in %q: %v", e.phase, e.spec, e.err)
}

func (e *taskError) Unwrap() error { return e.err }

var hashSeed = maphash.MakeSeed()

// partitionOf maps a key to a reducer partition using the spec's
// partitioner when present, hashing otherwise.
func partitionOf[K comparable](key K, numReducers int, fn func(K, int) int) int {
	if fn != nil {
		p := fn(key, numReducers) % numReducers
		if p < 0 {
			p += numReducers
		}
		return p
	}
	return int(maphash.Comparable(hashSeed, key) % uint64(numReducers))
}

// guard runs f, converting panics into errors, so one bad record cannot
// take down the runtime (Phoenix's fault-tolerance contract).
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// ctxErr returns ctx.Err() if the context is done, else nil.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
