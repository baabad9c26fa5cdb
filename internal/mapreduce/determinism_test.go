package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// deterministicCorpus builds a corpus with skew (some hot words, many
// singletons) and varying token lengths so fragment and chunk boundaries
// land differently at every worker count.
func deterministicCorpus() []byte {
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&sb, "hot%d ", i%7)
		fmt.Fprintf(&sb, "w%04d ", i)
		sb.WriteString(strings.Repeat("z", i%9+1))
		sb.WriteString(" ")
	}
	return []byte(sb.String())
}

// serialize renders an ordered result to the exact bytes a client would
// see; byte equality across runs is the determinism contract.
func serialize[R any](pairs []Pair[string, R]) []byte {
	var buf bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&buf, "%s\t%v\n", p.Key, p.Value)
	}
	return buf.Bytes()
}

// orderedWCSpec is word count emitting one pair per word through the
// streaming combiner, with a sorted final merge: every word folds through
// the engine's pooled records and value buffers.
func orderedWCSpec() Spec[string, int, int] {
	s := wcSpec()
	s.Combine = func(_ string, vs []int) []int {
		sum := 0
		for _, v := range vs {
			sum += v
		}
		vs[0] = sum
		return vs[:1]
	}
	s.Less = func(a, b string) bool { return a < b }
	return s
}

// sortMergeSpec groups value multisets per key and returns them sorted:
// an order-insensitive reduce whose output fingerprints every emitted
// value, exercising no-combine task records and the k-way merge.
func sortMergeSpec() Spec[string, int, []int] {
	return Spec[string, int, []int]{
		Name:  "sort-merge-test",
		Split: DelimiterSplitter(' ', '\n'),
		Map: func(chunk []byte, emit func(string, int)) error {
			for _, w := range bytes.Fields(chunk) {
				emit(string(w), len(w)*int(w[0]))
			}
			return nil
		},
		Reduce: func(_ string, vs []int) ([]int, error) {
			out := make([]int, len(vs))
			copy(out, vs)
			sort.Ints(out)
			return out, nil
		},
		Less:            func(a, b string) bool { return a < b },
		FootprintFactor: 3,
	}
}

// TestRunDeterministicAcrossParallelism: the engine must produce
// byte-identical ordered output at every worker count and GOMAXPROCS
// setting, and across repeated runs (pool recycling between jobs must not
// bleed state). This is the regression fence for the pooled-emit and
// parallel-scan machinery.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	input := deterministicCorpus()
	ctx := context.Background()

	run := func(t *testing.T, workers int) ([]byte, []byte) {
		t.Helper()
		wc, err := Run(ctx, Config{Workers: workers}, orderedWCSpec(), input)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := Run(ctx, Config{Workers: workers}, sortMergeSpec(), input)
		if err != nil {
			t.Fatal(err)
		}
		return serialize(wc.Pairs), serialize(sm.Pairs)
	}

	refWC, refSM := run(t, 1)
	if len(refWC) == 0 || len(refSM) == 0 {
		t.Fatal("reference outputs empty")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, workers := range []int{1, 2, 8} {
			// Repeated runs at the same setting catch cross-job pool
			// contamination; differing settings catch schedule-dependence.
			for rep := 0; rep < 3; rep++ {
				wc, sm := run(t, workers)
				if !bytes.Equal(wc, refWC) {
					t.Fatalf("gomaxprocs=%d workers=%d rep=%d: wordcount output bytes diverged from the single-worker reference",
						gmp, workers, rep)
				}
				if !bytes.Equal(sm, refSM) {
					t.Fatalf("gomaxprocs=%d workers=%d rep=%d: sort-merge output bytes diverged from the single-worker reference",
						gmp, workers, rep)
				}
			}
		}
	}
}

// TestRunDeterministicAcrossParallelismManyTasks is
// TestRunDeterministicAcrossParallelism on an input large enough that a
// combining spec, mapped one task per worker, still cuts several tasks at
// two and at eight workers: the ordered output must not depend on which
// worker mapped which chunk.
func TestRunDeterministicAcrossParallelismManyTasks(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 9*64<<10; i++ {
		fmt.Fprintf(&sb, "hot%d w%05d %s ", i%7, i%20011, strings.Repeat("z", i%9+1))
	}
	input := []byte(sb.String())
	ctx := context.Background()
	ref, err := Run(ctx, Config{Workers: 1}, orderedWCSpec(), input)
	if err != nil {
		t.Fatal(err)
	}
	refSM, err := Run(ctx, Config{Workers: 1}, sortMergeSpec(), input)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, workers := range []int{2, 8} {
			for rep := 0; rep < 2; rep++ {
				wc, err := Run(ctx, Config{Workers: workers}, orderedWCSpec(), input)
				if err != nil {
					t.Fatal(err)
				}
				if wc.Stats.MapTasks != workers {
					t.Fatalf("workers=%d: %d map tasks, want one per worker", workers, wc.Stats.MapTasks)
				}
				if !bytes.Equal(serialize(wc.Pairs), serialize(ref.Pairs)) {
					t.Fatalf("gomaxprocs=%d workers=%d rep=%d: wordcount output bytes diverged from the single-worker reference", gmp, workers, rep)
				}
				sm, err := Run(ctx, Config{Workers: workers}, sortMergeSpec(), input)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialize(sm.Pairs), serialize(refSM.Pairs)) {
					t.Fatalf("gomaxprocs=%d workers=%d rep=%d: sort-merge output bytes diverged from the single-worker reference", gmp, workers, rep)
				}
			}
		}
	}
}
