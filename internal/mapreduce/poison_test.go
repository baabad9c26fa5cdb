package mapreduce

import (
	"context"
	"sync/atomic"
	"testing"
)

// poisonValue is an improbable sentinel: any appearance in a result means
// a recycled buffer's stale region leaked into live data.
const poisonValue = -0x5EED5EED

// TestPooledBuffersPoisonedOnRecycle scribbles a sentinel over every value
// buffer the moment it returns to the free list — including the spare
// capacity beyond len — then runs jobs across worker counts and asserts
// the sentinel never surfaces in results. Any engine path that reads a
// recycled buffer before overwriting it, or hands out a buffer without
// truncating to zero length, fails loudly here instead of corrupting
// counts silently in production.
func TestPooledBuffersPoisonedOnRecycle(t *testing.T) {
	if testRecyclePoison != nil {
		t.Fatal("poison hook already installed")
	}
	var poisoned atomic.Int64
	testRecyclePoison = func(buf any) {
		vs, ok := buf.([]int)
		if !ok {
			return
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

	for _, workers := range []int{1, 2, 4} {
		// Small tasks give every worker several, so known keys splice
		// and recycle their buffers (a default single-worker run maps
		// this corpus as one task and never would).
		cfg := Config{Workers: workers, ChunkSize: 4 << 10}
		// Repeats force cross-job reuse through the sync.Pools, so later
		// jobs consume buffers earlier jobs poisoned.
		for rep := 0; rep < 3; rep++ {
			res, err := Run(ctx, cfg, orderedWCSpec(), input)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Map()
			if len(got) != len(want) {
				t.Fatalf("workers=%d rep=%d: %d keys, want %d", workers, rep, len(got), len(want))
			}
			for k, v := range got {
				if v == poisonValue || v < 0 {
					t.Fatalf("workers=%d rep=%d: key %q has poisoned/corrupt count %d", workers, rep, k, v)
				}
				if want[k] != v {
					t.Fatalf("workers=%d rep=%d: count[%q] = %d, want %d", workers, rep, k, v, want[k])
				}
			}

			// The staged path recycles through the same pools.
			sm, err := Run(ctx, cfg, sortMergeSpec(), input)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range sm.Pairs {
				for _, v := range p.Value {
					if v == poisonValue {
						t.Fatalf("workers=%d rep=%d: key %q retained a poisoned value", workers, rep, p.Key)
					}
				}
			}
		}
	}
	if poisoned.Load() == 0 {
		t.Fatal("poison hook never fired: buffers are not being recycled, test is vacuous")
	}
}
