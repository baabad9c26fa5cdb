package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

// MergeSorted is MergeSortedStats without the strategy.
func MergeSorted[K comparable, R any](runs [][]Pair[K, R], less func(a, b K) bool) []Pair[K, R] {
	out, _ := MergeSortedStats(runs, less)
	return out
}

// makeRuns deals n sorted pairs round-robin-ish into k sorted runs.
func makeRuns(n, k int, seed int64) [][]Pair[int, int] {
	rng := rand.New(rand.NewSource(seed))
	span := n / 2 * 3
	if span < 1 {
		span = 1
	}
	vals := make([]int, n)
	for i := range vals {
		vals[i] = rng.Intn(span)
	}
	sort.Ints(vals)
	runs := make([][]Pair[int, int], k)
	for i, v := range vals {
		r := i % k
		runs[r] = append(runs[r], Pair[int, int]{Key: v, Value: i})
	}
	return runs
}

func TestMergeSortedMatchesLinear(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 3}, {1, 1}, {5, 2}, {100, 3}, {1000, 8}, {5000, 64},
	} {
		runs := makeRuns(tc.n, tc.k, int64(tc.n*31+tc.k))
		got := MergeSorted(runs, intLess)
		want := mergeSortedLinear(runs, intLess)
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: merged %d pairs, want %d", tc.n, tc.k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: pair %d = %v, want %v", tc.n, tc.k, i, got[i], want[i])
			}
		}
	}
}

// TestMergeSortedParallelPath forces the range-split parallel merge (total
// above parallelMergeMin, many runs) and checks it against the baseline,
// including duplicate keys that straddle pivot boundaries.
func TestMergeSortedParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large merge in -short mode")
	}
	n := parallelMergeMin + 5000 // comfortably over the threshold
	runs := makeRuns(n, 16, 42)
	got := MergeSorted(runs, intLess)
	want := mergeSortedLinear(runs, intLess)
	if len(got) != len(want) {
		t.Fatalf("merged %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeSortedProperty(t *testing.T) {
	prop := func(raw []uint16, k uint8) bool {
		kk := int(k)%7 + 1
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v)
		}
		sort.Ints(vals)
		runs := make([][]Pair[int, int], kk)
		for i, v := range vals {
			runs[i%kk] = append(runs[i%kk], Pair[int, int]{Key: v, Value: i})
		}
		got := MergeSorted(runs, intLess)
		want := mergeSortedLinear(runs, intLess)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSortedSingleRun(t *testing.T) {
	runs := [][]Pair[int, string]{nil, {{1, "a"}, {2, "b"}}, {}}
	out := MergeSorted(runs, intLess)
	if len(out) != 2 || out[0].Value != "a" || out[1].Value != "b" {
		t.Fatalf("single-run merge = %v", out)
	}
}

// mergeSink keeps the benchmarked merges' results live.
var mergeSink []Pair[int, int]

// BenchmarkMergeSorted is the crossover measurement behind mergeTreeMinK:
// forced linear tournament, forced tree merge and the adaptive pick over the
// same 128 Ki pairs at each fan-in. Sweep cores with -cpu to see where the
// adaptive merge switches to the parallel range split.
func BenchmarkMergeSorted(b *testing.B) {
	const total = 1 << 17
	for _, k := range []int{2, 8, 16, 64} {
		runs := makeRuns(total, k, int64(k))
		for _, v := range []struct {
			name  string
			merge func() []Pair[int, int]
		}{
			{"linear", func() []Pair[int, int] { return mergeSortedWith(runs, intLess, MergeLinear) }},
			{"tree", func() []Pair[int, int] { return mergeSortedWith(runs, intLess, MergeTree) }},
			{"adaptive", func() []Pair[int, int] { return MergeSorted(runs, intLess) }},
		} {
			b.Run(fmt.Sprintf("%s/k=%d", v.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mergeSink = v.merge()
				}
			})
		}
	}
}

// mergeSortedWith merges with a forced strategy, so tests and benchmarks
// can pin strategies against each other at a given fan-in. A strategy that
// cannot handle the run shape (e.g. MergeBinary over three non-empty runs)
// falls back to MergeTree.
func mergeSortedWith[K comparable, R any](runs [][]Pair[K, R], less func(a, b K) bool, strat MergeStrategy) []Pair[K, R] {
	total, live := 0, 0
	for _, r := range runs {
		if len(r) > 0 {
			live++
			total += len(r)
		}
	}
	if (strat == MergeCopy && live > 1) || (strat == MergeBinary && live != 2) {
		strat = MergeTree
	}
	return mergeAs(strat, runs, less, total, live)
}

// mergeSortedLinear is the linear tournament, O(total·k) over run heads:
// the reference every adaptive strategy is checked against.
func mergeSortedLinear[K comparable, R any](runs [][]Pair[K, R], less func(a, b K) bool) []Pair[K, R] {
	return mergeSortedWith(runs, less, MergeLinear)
}
