package mapreduce

import (
	"reflect"
	"sync"
)

// Allocation discipline for the emit hot path. Every raw emission used to
// cost at least one heap allocation (a string key copy, a fresh value
// slice, map growth); at word-count rates that is hundreds of thousands of
// allocations per fragment and the GC, not the CPU, sets the throughput
// ceiling. The machinery here collapses that to ~one allocation per
// *distinct* key per task:
//
//   - value run buffers ([]V) come from a per-worker free list, recycled
//     at splice time and returned to a process-wide sync.Pool when the
//     worker retires, so steady state allocates no buffer memory across
//     jobs;
//   - emit KV records (key + value-run header) are dealt from a per-worker
//     arena that is reset — not freed — after every task, and found
//     through a pooled Go map.

// freeBufCap is the initial capacity of a fresh value run buffer. Most
// keys see few values per task (a combiner folds at streamFoldLen), so buffers start small and grow only for hot keys.
const freeBufCap = 8

// maxRecycledCap bounds the capacity of a buffer the free list will keep.
// A no-combine task can grow one key's run to thousands of values;
// recycling such a buffer would pin its array for the life of the pool.
const maxRecycledCap = 512

// freeListMax bounds a worker's free list length.
const freeListMax = 4096

// testRecyclePoison, when non-nil, is invoked with every value buffer
// (re-sliced to full capacity) as it enters a free list. Tests install a
// hook that overwrites the buffer with poison values: if the engine ever
// recycles a buffer that is still referenced by a live accumulator, the
// poison surfaces in results and the pool-safety tests fail. Production
// builds never set it, so the hot path pays one nil check.
var testRecyclePoison func(buf any)

// typePools hands out one sync.Pool per concrete element type, letting
// generic code share pools across jobs (a package cannot declare a
// package-level variable of a generic type).
var typePools sync.Map // reflect.Type -> *sync.Pool

func poolFor(t reflect.Type) *sync.Pool {
	if p, ok := typePools.Load(t); ok {
		return p.(*sync.Pool)
	}
	p, _ := typePools.LoadOrStore(t, &sync.Pool{})
	return p.(*sync.Pool)
}

// getFreeList returns a recycled bundle of value buffers for a worker, or
// an empty one.
func getFreeList[V any]() [][]V {
	if v := poolFor(reflect.TypeFor[[][]V]()).Get(); v != nil {
		return *(v.(*[][]V))
	}
	return nil
}

// putFreeList returns a worker's free list to the process-wide pool. Every
// buffer in it is length zero and referenced by nothing else.
func putFreeList[V any](fl [][]V) {
	if len(fl) == 0 {
		return
	}
	poolFor(reflect.TypeFor[[][]V]()).Put(&fl)
}

// getTaskMap hands a map worker a recycled (empty) record index.
func getTaskMap[K comparable, V any]() map[K]*kvrec[K, V] {
	if v := poolFor(reflect.TypeFor[map[K]*kvrec[K, V]]()).Get(); v != nil {
		return v.(map[K]*kvrec[K, V])
	}
	return make(map[K]*kvrec[K, V])
}

func putTaskMap[K comparable, V any](m map[K]*kvrec[K, V]) {
	clear(m)
	poolFor(reflect.TypeFor[map[K]*kvrec[K, V]]()).Put(m)
}

// kvrec is one emit record: a key and its value run. Records live in a
// recArena and are referenced only by run-local state, so a whole task's
// records are reclaimed with one arena reset.
type kvrec[K comparable, V any] struct {
	key K
	vs  []V
}

// recArenaBlock is the record count per arena block.
const recArenaBlock = 256

// recArena deals kvrec records from append-only blocks. alloc is O(1) and
// allocation-free except when a fresh block is first needed; reset recycles
// every record at once (zeroing them so stale keys and buffer headers are
// not pinned) while keeping every block for the next task. Arenas are
// pooled across jobs via getArena/putArena.
type recArena[K comparable, V any] struct {
	blocks [][]kvrec[K, V]
	cur    int // block being dealt from; (cur, used) is the next free slot
	used   int // records handed out from blocks[cur]
}

func (a *recArena[K, V]) alloc() *kvrec[K, V] {
	if a.cur == len(a.blocks) {
		a.blocks = append(a.blocks, make([]kvrec[K, V], recArenaBlock))
	}
	r := &a.blocks[a.cur][a.used]
	a.used++
	if a.used == recArenaBlock {
		a.cur++
		a.used = 0
	}
	return r
}

// each visits every live record in allocation (first-emission) order, so
// a task splices without iterating its map.
func (a *recArena[K, V]) each(f func(*kvrec[K, V])) {
	for i := 0; i < a.cur; i++ {
		blk := a.blocks[i]
		for j := range blk {
			f(&blk[j])
		}
	}
	if a.cur < len(a.blocks) {
		blk := a.blocks[a.cur]
		for j := 0; j < a.used; j++ {
			f(&blk[j])
		}
	}
}

// reset reclaims every record. Used records are zeroed so the arena does
// not pin the keys and value-slice headers of finished tasks.
func (a *recArena[K, V]) reset() {
	for i := 0; i < a.cur; i++ {
		clear(a.blocks[i])
	}
	if a.cur < len(a.blocks) {
		clear(a.blocks[a.cur][:a.used])
	}
	a.cur, a.used = 0, 0
}

// getArena hands a worker a recycled (reset) record arena.
func getArena[K comparable, V any]() *recArena[K, V] {
	if v := poolFor(reflect.TypeFor[recArena[K, V]]()).Get(); v != nil {
		return v.(*recArena[K, V])
	}
	return &recArena[K, V]{}
}

func putArena[K comparable, V any](a *recArena[K, V]) {
	a.reset()
	poolFor(reflect.TypeFor[recArena[K, V]]()).Put(a)
}

// getBuf pops a recycled value buffer or makes a small fresh one.
func (st *mapWorker[K, V]) getBuf() []V {
	if n := len(st.free); n > 0 {
		buf := st.free[n-1]
		st.free[n-1] = nil
		st.free = st.free[:n-1]
		return buf
	}
	return make([]V, 0, freeBufCap)
}

// putBuf recycles a value buffer whose contents have been spliced out.
// The caller must guarantee no live accumulator still references it —
// the pool-safety tests poison recycled buffers to enforce exactly that.
func (st *mapWorker[K, V]) putBuf(vs []V) {
	if cap(vs) == 0 || cap(vs) > maxRecycledCap || len(st.free) >= freeListMax {
		return
	}
	vs = vs[:0]
	if testRecyclePoison != nil {
		testRecyclePoison(vs[:cap(vs)])
	}
	st.free = append(st.free, vs)
}
