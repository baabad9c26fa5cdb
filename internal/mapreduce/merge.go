package mapreduce

import (
	"runtime"
	"sort"
	"sync"
)

// MergeStrategy identifies how the final k-way merge combined the sorted
// partition runs. The strategy is picked at runtime from the fan-in and
// output size (MergeStrategyFor) and reported in Stats.MergeStrategy.
type MergeStrategy int

const (
	// MergeCopy: zero or one non-empty run — a straight copy.
	MergeCopy MergeStrategy = iota
	// MergeBinary: exactly two non-empty runs — two-pointer merge.
	MergeBinary
	// MergeLinear: a linear tournament over run heads, O(total·k). Below
	// the tree crossover its branch-predictable scan beats the heap's
	// sift cost.
	MergeLinear
	// MergeTree: a tournament-tree (min-heap) merge, O(total·log k).
	MergeTree
	// MergeParallel: disjoint key ranges merged concurrently, for large
	// outputs on a multicore node.
	MergeParallel
)

func (s MergeStrategy) String() string {
	switch s {
	case MergeCopy:
		return "copy"
	case MergeBinary:
		return "binary"
	case MergeLinear:
		return "linear"
	case MergeTree:
		return "tree"
	case MergeParallel:
		return "parallel"
	}
	return "unknown"
}

// mergeTreeMinK is the fan-in at which the tree merge starts beating the
// linear tournament. Below it the linear scan's predictable branches win;
// BenchmarkMergeSorted (merge_test.go) measures the crossover by forcing
// each strategy across a k = 2, 8, 16, 64 sweep.
const mergeTreeMinK = 12

// parallelMergeMin is the output size below which a parallel final merge is
// not worth the goroutine and boundary-search overhead.
const parallelMergeMin = 1 << 16

// MergeStrategyFor picks the merge strategy for the given total output
// length and number of non-empty runs.
func MergeStrategyFor(total, live int) MergeStrategy {
	switch {
	case live <= 1:
		return MergeCopy
	case live == 2:
		return MergeBinary
	case total >= parallelMergeMin && live >= 4 && runtime.GOMAXPROCS(0) > 1:
		return MergeParallel
	case live < mergeTreeMinK:
		return MergeLinear
	default:
		return MergeTree
	}
}

// MergeSortedStats k-way merges sorted runs into one sorted slice, picking
// the strategy from the fan-in (see MergeStrategyFor), and reports the
// strategy it chose.
//
// Ties between runs are broken by run index, so output is deterministic
// for any input regardless of strategy.
func MergeSortedStats[K comparable, R any](runs [][]Pair[K, R], less func(a, b K) bool) ([]Pair[K, R], MergeStrategy) {
	total, live := 0, 0
	for _, r := range runs {
		if len(r) > 0 {
			live++
			total += len(r)
		}
	}
	strat := MergeStrategyFor(total, live)
	return mergeAs(strat, runs, less, total, live), strat
}

func mergeAs[K comparable, R any](strat MergeStrategy, runs [][]Pair[K, R], less func(a, b K) bool, total, live int) []Pair[K, R] {
	out := make([]Pair[K, R], total)
	if live == 0 {
		return out
	}
	switch strat {
	case MergeCopy:
		n := 0
		for _, r := range runs {
			n += copy(out[n:], r)
		}
	case MergeBinary:
		var a, b []Pair[K, R]
		for _, r := range runs {
			if len(r) == 0 {
				continue
			}
			if a == nil {
				a = r
			} else {
				b = r
			}
		}
		mergeTwoInto(out, a, b, less)
	case MergeLinear:
		linearMergeInto(out, runs, less)
	case MergeParallel:
		parallelMergeInto(out, runs, less)
	default:
		mergeInto(out, runs, less)
	}
	return out
}

// linearMergeInto merges runs into dst (len(dst) = total run length) with
// a linear tournament: each step scans every run head. One allocation.
func linearMergeInto[K comparable, R any](dst []Pair[K, R], runs [][]Pair[K, R], less func(a, b K) bool) {
	idx := make([]int, len(runs))
	for n := range dst {
		best := -1
		for i, r := range runs {
			if idx[i] >= len(r) {
				continue
			}
			if best < 0 || less(r[idx[i]].Key, runs[best][idx[best]].Key) {
				best = i
			}
		}
		dst[n] = runs[best][idx[best]]
		idx[best]++
	}
}

// mergeInto merges the sorted runs (empty runs allowed) into dst, which
// must have length equal to the total run length. Two live runs take the
// two-pointer fast path; more use a min-heap of run heads. The heap and
// cursor arrays share one backing allocation, so the whole merge costs
// exactly one allocation beyond dst — matching the linear baseline's
// profile.
func mergeInto[K comparable, R any](dst []Pair[K, R], runs [][]Pair[K, R], less func(a, b K) bool) {
	k := len(runs)
	backing := make([]int, 2*k)
	h := runHeap[K, R]{runs: runs, idx: backing[:k], heap: backing[k:k], less: less}
	for i, r := range runs {
		if len(r) > 0 {
			h.heap = append(h.heap, i)
		}
	}
	switch len(h.heap) {
	case 0:
		return
	case 1:
		copy(dst, runs[h.heap[0]])
		return
	case 2:
		mergeTwoInto(dst, runs[h.heap[0]], runs[h.heap[1]], less)
		return
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for n := range dst {
		top := h.heap[0]
		dst[n] = h.runs[top][h.idx[top]]
		h.idx[top]++
		if h.idx[top] == len(h.runs[top]) {
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap = h.heap[:last]
		}
		if len(h.heap) > 1 {
			h.siftDown(0)
		}
	}
}

// mergeTwoInto is the binary merge fast path.
func mergeTwoInto[K comparable, R any](dst []Pair[K, R], a, b []Pair[K, R], less func(x, y K) bool) {
	i, j := 0, 0
	for n := range dst {
		switch {
		case i == len(a):
			dst[n] = b[j]
			j++
		case j == len(b):
			dst[n] = a[i]
			i++
		case less(b[j].Key, a[i].Key):
			dst[n] = b[j]
			j++
		default: // a wins ties, keeping run order stable
			dst[n] = a[i]
			i++
		}
	}
}

// runHeap is a min-heap of run indices ordered by each run's head key,
// with run index as the tie breaker.
type runHeap[K comparable, R any] struct {
	runs [][]Pair[K, R]
	idx  []int
	heap []int
	less func(a, b K) bool
}

// before reports whether run a's head should be emitted ahead of run b's.
func (h *runHeap[K, R]) before(a, b int) bool {
	ka := h.runs[a][h.idx[a]].Key
	kb := h.runs[b][h.idx[b]].Key
	if h.less(ka, kb) {
		return true
	}
	if h.less(kb, ka) {
		return false
	}
	return a < b
}

func (h *runHeap[K, R]) siftDown(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.before(h.heap[l], h.heap[small]) {
			small = l
		}
		if r < n && h.before(h.heap[r], h.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
}

// parallelMergeInto splits the key space into GOMAXPROCS-bounded disjoint
// ranges — pivots sampled from the longest run, segment boundaries found
// by binary search in every run — and heap-merges each range concurrently
// into its precomputed slot of dst. One pass over the data, no locking:
// every goroutine owns a disjoint slice of dst.
func parallelMergeInto[K comparable, R any](dst []Pair[K, R], runs [][]Pair[K, R], less func(a, b K) bool) {
	parts := runtime.GOMAXPROCS(0)
	if parts > 8 {
		parts = 8
	}
	longest := 0
	for i, r := range runs {
		if len(r) > len(runs[longest]) {
			longest = i
		}
	}
	src := runs[longest]
	pivots := make([]K, parts-1)
	for j := 1; j < parts; j++ {
		pivots[j-1] = src[j*len(src)/parts].Key
	}

	// bounds[i][s] is where segment s starts in run i: the first index
	// whose key is >= pivots[s-1]. Keys equal to a pivot land at the start
	// of that pivot's segment in every run, so no key range is torn.
	bounds := make([][]int, len(runs))
	for i, r := range runs {
		bi := make([]int, parts+1)
		bi[parts] = len(r)
		for j, piv := range pivots {
			prev := bi[j]
			bi[j+1] = prev + sort.Search(len(r)-prev, func(x int) bool {
				return !less(r[prev+x].Key, piv)
			})
		}
		bounds[i] = bi
	}

	var wg sync.WaitGroup
	off := 0
	for s := 0; s < parts; s++ {
		segLen := 0
		segRuns := make([][]Pair[K, R], 0, len(runs))
		for i, r := range runs {
			lo, hi := bounds[i][s], bounds[i][s+1]
			if lo < hi {
				segRuns = append(segRuns, r[lo:hi])
				segLen += hi - lo
			}
		}
		if segLen == 0 {
			continue
		}
		seg := dst[off : off+segLen]
		off += segLen
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(segRuns) == 1 {
				copy(seg, segRuns[0])
				return
			}
			mergeInto(seg, segRuns, less)
		}()
	}
	wg.Wait()
}
