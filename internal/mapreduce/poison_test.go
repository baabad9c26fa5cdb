package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// poisonValue is an improbable sentinel: any appearance in a result means
// a recycled buffer's stale region leaked into live data.
const poisonValue = -0x5EED5EED

// handedRuns records the backing array of every value run handed to a
// Reduce. A Reduce may keep its run (string match returns it as the
// result), so the engine must never recycle one of these afterwards.
type handedRuns struct {
	mu     sync.Mutex
	arrays map[*int]bool
}

func (h *handedRuns) add(vs []int) {
	if cap(vs) == 0 {
		return
	}
	h.mu.Lock()
	h.arrays[&vs[:1][0]] = true
	h.mu.Unlock()
}

func (h *handedRuns) has(vs []int) bool {
	if cap(vs) == 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.arrays[&vs[:1][0]]
}

// tracked wraps spec's Reduce so every run it is handed is recorded in h.
func tracked[R any](h *handedRuns, spec Spec[string, int, R]) Spec[string, int, R] {
	reduce := spec.Reduce
	spec.Reduce = func(k string, vs []int) (R, error) {
		h.add(vs)
		return reduce(k, vs)
	}
	return spec
}

// failingFirst wraps spec's Map so its first attempt emits everything and
// then fails, leaving records for the engine to discard and recycle.
func failingFirst[R any](spec Spec[string, int, R]) Spec[string, int, R] {
	mapFn := spec.Map
	var calls atomic.Int64
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		if err := mapFn(chunk, emit); err != nil {
			return err
		}
		if calls.Add(1) == 1 {
			return fmt.Errorf("transient failure after emitting")
		}
		return nil
	}
	return spec
}

// keepRunSpec is string match's shape: no combiner, and Reduce returns the
// key's value run itself as the result.
func keepRunSpec() Spec[string, int, []int] {
	return Spec[string, int, []int]{
		Name:  "keep-run-test",
		Split: DelimiterSplitter(' ', '\n'),
		Map: func(chunk []byte, emit func(string, int)) error {
			for _, w := range bytes.Fields(chunk) {
				emit(string(w), len(w))
			}
			return nil
		},
		Reduce: func(_ string, vs []int) ([]int, error) { return vs, nil },
	}
}

// TestPooledBuffersPoisonedOnRecycle scribbles a sentinel over every value
// buffer the moment it returns to the free list — including the spare
// capacity beyond len — then runs jobs across worker counts and asserts
// the sentinel never surfaces in results. Any engine path that reads a
// recycled buffer before overwriting it, or hands out a buffer without
// truncating to zero length, fails loudly here instead of corrupting
// counts silently in production. A buffer once handed to Reduce must
// never be recycled at all.
func TestPooledBuffersPoisonedOnRecycle(t *testing.T) {
	if testRecyclePoison != nil {
		t.Fatal("poison hook already installed")
	}
	handed := &handedRuns{arrays: make(map[*int]bool)}
	var poisoned, reRecycled atomic.Int64
	testRecyclePoison = func(buf any) {
		vs, ok := buf.([]int)
		if !ok {
			return
		}
		if handed.has(vs) {
			reRecycled.Add(1)
		}
		for i := range vs {
			vs[i] = poisonValue
		}
		poisoned.Add(1)
	}
	defer func() { testRecyclePoison = nil }()

	input := deterministicCorpus()
	ctx := context.Background()
	want := naiveCount(string(input))
	checkCounts := func(name string, got map[string]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d", name, len(got), len(want))
		}
		for k, v := range got {
			if v == poisonValue || v < 0 {
				t.Fatalf("%s: key %q has poisoned/corrupt count %d", name, k, v)
			}
			if want[k] != v {
				t.Fatalf("%s: count[%q] = %d, want %d", name, k, v, want[k])
			}
		}
	}
	checkRuns := func(name string, pairs []Pair[string, []int], exact bool) {
		t.Helper()
		for _, p := range pairs {
			for _, v := range p.Value {
				if v == poisonValue {
					t.Fatalf("%s: key %q retained a poisoned value", name, p.Key)
				}
			}
			if exact && len(p.Value) != want[p.Key] {
				t.Fatalf("%s: key %q kept %d values, want %d", name, p.Key, len(p.Value), want[p.Key])
			}
		}
	}

	for _, workers := range []int{1, 2, 4} {
		// Small tasks give every worker several, so known keys splice
		// and recycle their buffers (a default single-worker run maps
		// this corpus as one task and never would).
		cfg := Config{Workers: workers, ChunkSize: 4 << 10}
		// Repeats force cross-job reuse through the sync.Pools, so later
		// jobs consume buffers earlier jobs poisoned.
		for rep := 0; rep < 3; rep++ {
			name := fmt.Sprintf("workers=%d rep=%d", workers, rep)
			res, err := Run(ctx, cfg, tracked(handed, orderedWCSpec()), input)
			if err != nil {
				t.Fatal(err)
			}
			checkCounts(name, res.Map())

			// A no-combine run recycles through the same pools.
			sm, err := Run(ctx, cfg, tracked(handed, sortMergeSpec()), input)
			if err != nil {
				t.Fatal(err)
			}
			checkRuns(name+" sort-merge", sm.Pairs, false)
		}
	}

	// One worker over one chunk: the run reduces straight from its task
	// records. Its only recycling is a failed attempt's discard, so each
	// spec also runs with a first attempt that emits and then fails; the
	// retried attempt and the later jobs take the poisoned buffers.
	solo := Config{Workers: 1, MaxTaskRetries: 1}
	for _, spec := range []Spec[string, int, int]{orderedWCSpec(), failingFirst(orderedWCSpec())} {
		res, err := Run(ctx, solo, tracked(handed, spec), input)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MapTasks != 1 {
			t.Fatalf("one task: MapTasks = %d, want 1", res.Stats.MapTasks)
		}
		checkCounts("one task", res.Map())
	}
	for _, spec := range []Spec[string, int, []int]{
		sortMergeSpec(), failingFirst(sortMergeSpec()), keepRunSpec(), failingFirst(keepRunSpec()),
	} {
		res, err := Run(ctx, solo, tracked(handed, spec), input)
		if err != nil {
			t.Fatal(err)
		}
		checkRuns("one task "+spec.Name, res.Pairs, true)
	}

	if poisoned.Load() == 0 {
		t.Fatal("poison hook never fired: buffers are not being recycled, test is vacuous")
	}
	if n := reRecycled.Load(); n > 0 {
		t.Fatalf("%d value runs were recycled after being handed to Reduce", n)
	}
}
