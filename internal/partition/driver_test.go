package partition

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mcsd/internal/mapreduce"
	"mcsd/internal/memsim"
)

func wcSpec() mapreduce.Spec[string, int, int] {
	return mapreduce.Spec[string, int, int]{
		Name:  "wc",
		Split: mapreduce.DelimiterSplitter(' ', '\n'),
		Map: func(chunk []byte, emit func(string, int)) error {
			for _, w := range bytes.Fields(chunk) {
				emit(string(w), 1)
			}
			return nil
		},
		Reduce: func(_ string, vs []int) (int, error) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			return sum, nil
		},
		FootprintFactor: 3,
	}
}

func TestRunPartitionedWordCount(t *testing.T) {
	text := strings.Repeat("to be or not to be ", 50)
	res, err := Run(context.Background(), mapreduce.Config{Workers: 2}, wcSpec(),
		strings.NewReader(text), Options{FragmentSize: 64}, SumMerge[int])
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments < 5 {
		t.Fatalf("Fragments = %d, want many at 64-byte fragments", res.Fragments)
	}
	m := res.Map()
	if m["to"] != 100 || m["be"] != 100 || m["or"] != 50 {
		t.Fatalf("counts wrong: %v", m)
	}

	// An ordered spec must get the chosen final-merge strategy recorded.
	ordered := wcSpec()
	ordered.Less = func(a, b string) bool { return a < b }
	res, err = Run(context.Background(), mapreduce.Config{Workers: 2}, ordered,
		strings.NewReader(text), Options{FragmentSize: 64}, SumMerge[int])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MergeStrategy == "" {
		t.Fatal("MergeStrategy not recorded for an ordered run")
	}
}

func TestRunRequiresMerge(t *testing.T) {
	_, err := Run[string, int, int](context.Background(), mapreduce.Config{}, wcSpec(),
		strings.NewReader("a"), Options{}, nil)
	if err == nil {
		t.Fatal("nil merge accepted")
	}
}

// The TestRunParallel* tests drive Run with a multi-worker fragment pool.

func TestRunParallelWordCount(t *testing.T) {
	text := strings.Repeat("lorem ipsum dolor ", 200)
	for _, workers := range []int{2, 4, 8} {
		res, err := Run(context.Background(), mapreduce.Config{Workers: workers}, wcSpec(),
			strings.NewReader(text), Options{FragmentSize: 128}, SumMerge[int])
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m := res.Map()
		if m["lorem"] != 200 || m["ipsum"] != 200 || m["dolor"] != 200 {
			t.Fatalf("workers=%d: counts wrong: %v", workers, m)
		}
		if res.Fragments < 5 {
			t.Fatalf("workers=%d: Fragments = %d, want many", workers, res.Fragments)
		}
	}
}

func TestRunParallelRequiresMerge(t *testing.T) {
	_, err := Run[string, int, int](context.Background(), mapreduce.Config{Workers: 4}, wcSpec(),
		strings.NewReader("a b c d"), Options{FragmentSize: 2}, nil)
	if err == nil {
		t.Fatal("nil merge accepted")
	}
}

func TestRunParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, mapreduce.Config{Workers: 4}, wcSpec(),
		strings.NewReader("a b c d"), Options{FragmentSize: 2}, SumMerge[int])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPartitionedBeatsMemoryWall(t *testing.T) {
	// The paper's headline: an input whose 3x footprint exceeds the node's
	// memory limit fails natively but succeeds partitioned.
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 4096, UsableFraction: 1.0, SwapBytes: 0})
	cfg := mapreduce.Config{Workers: 2, Memory: acct}
	text := strings.Repeat("word soup here ", 200) // 3000 bytes, 9000 footprint

	_, err := mapreduce.Run(context.Background(), cfg, wcSpec(), []byte(text))
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("native run err = %v, want ErrOutOfMemory", err)
	}

	res, err := Run(context.Background(), cfg, wcSpec(),
		strings.NewReader(text), Options{FragmentSize: 1000}, SumMerge[int])
	if err != nil {
		t.Fatalf("partitioned run failed: %v", err)
	}
	if got := res.Map()["word"]; got != 200 {
		t.Fatalf("word = %d, want 200", got)
	}
	if acct.Footprint() != 0 {
		t.Fatalf("run leaked %d bytes", acct.Footprint())
	}
	if acct.Peak() > 4096 {
		t.Fatalf("peak footprint %d exceeded node memory", acct.Peak())
	}
}

func TestRunPartitionedFragmentTooLargeStillOOMs(t *testing.T) {
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 1024, UsableFraction: 1.0})
	cfg := mapreduce.Config{Workers: 1, Memory: acct}
	text := strings.Repeat("abc ", 500)
	_, err := Run(context.Background(), cfg, wcSpec(),
		strings.NewReader(text), Options{FragmentSize: 1500}, SumMerge[int])
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory for oversized fragments", err)
	}
}

func TestRunSortedMergedOutput(t *testing.T) {
	spec := wcSpec()
	spec.Less = func(a, b string) bool { return a < b }
	text := "delta alpha charlie bravo alpha delta "
	res, err := Run(context.Background(), mapreduce.Config{Workers: 2}, spec,
		strings.NewReader(strings.Repeat(text, 10)), Options{FragmentSize: 30}, SumMerge[int])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i-1].Key >= res.Pairs[i].Key {
			t.Fatalf("merged output not sorted at %d: %q >= %q",
				i, res.Pairs[i-1].Key, res.Pairs[i].Key)
		}
	}
	if got := res.Map()["alpha"]; got != 20 {
		t.Fatalf("alpha = %d, want 20", got)
	}
}

func TestRunConcatMergeStringMatchStyle(t *testing.T) {
	// String-match-like: emit matching lines under a single key.
	spec := mapreduce.Spec[string, string, []string]{
		Name:  "sm",
		Split: mapreduce.LineSplitter,
		Map: func(chunk []byte, emit func(string, string)) error {
			for _, line := range bytes.Split(chunk, []byte{'\n'}) {
				if bytes.Contains(line, []byte("needle")) {
					emit("match", string(line))
				}
			}
			return nil
		},
		Reduce: func(_ string, vs []string) ([]string, error) { return vs, nil },
	}
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			sb.WriteString("here is a needle line\n")
		} else {
			sb.WriteString("plain hay line\n")
		}
	}
	res, err := Run(context.Background(), mapreduce.Config{Workers: 2}, spec,
		strings.NewReader(sb.String()), Options{FragmentSize: 100, Delimiters: []byte{'\n'}},
		ConcatMerge[string])
	if err != nil {
		t.Fatal(err)
	}
	matches := res.Map()["match"]
	if len(matches) != 10 {
		t.Fatalf("got %d matches, want 10", len(matches))
	}
}

func TestRunStatsAggregation(t *testing.T) {
	text := strings.Repeat("k v ", 100)
	res, err := Run(context.Background(), mapreduce.Config{Workers: 2}, wcSpec(),
		strings.NewReader(text), Options{FragmentSize: 50}, SumMerge[int])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InputBytes != int64(len(text)) {
		t.Fatalf("InputBytes = %d, want %d", res.Stats.InputBytes, len(text))
	}
	if res.Stats.PairsEmitted != 200 {
		t.Fatalf("PairsEmitted = %d, want 200", res.Stats.PairsEmitted)
	}
	if res.Stats.UniqueKeys != 2 {
		t.Fatalf("UniqueKeys = %d, want 2", res.Stats.UniqueKeys)
	}
	if res.Fragments < 2 {
		t.Fatalf("Fragments = %d, want > 1", res.Fragments)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, mapreduce.Config{}, wcSpec(),
		strings.NewReader("a b c"), Options{FragmentSize: 2}, SumMerge[int])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Property: partitioned word count equals unpartitioned word count for any
// fragment size and pool size — partitioning is semantically invisible
// (Fig. 6 yields "Output" identical to the native workflow).
func TestPartitionedEqualsNativeProperty(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		prop := func(words []string, fragSize uint8) bool {
			text := strings.Join(words, " ") + " "
			native, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: 2},
				wcSpec(), []byte(text))
			if err != nil {
				return false
			}
			part, err := Run(context.Background(), mapreduce.Config{Workers: workers}, wcSpec(),
				strings.NewReader(text), Options{FragmentSize: int64(fragSize)%60 + 1},
				SumMerge[int])
			if err != nil {
				return false
			}
			nm, pm := native.Map(), part.Map()
			if len(nm) != len(pm) {
				return false
			}
			for k, v := range nm {
				if pm[k] != v {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestAutoFragmentSize(t *testing.T) {
	mem := memsim.DefaultConfig() // 2 GB, 90% usable
	for _, tc := range []struct {
		factor, charged float64
	}{
		{3, 3},
		{0, 2},  // unset: the engine's default factor
		{-1, 2}, // nonsense: likewise
		{0.5, 0.5},
	} {
		frag := AutoFragmentSize(mem, tc.factor)
		// The fragment's footprint, at the factor the engine will charge,
		// must fill half of usable RAM.
		if got, want := float64(frag)*tc.charged, float64(mem.Usable())/2; got > want+1 || got < want-tc.charged {
			t.Fatalf("factor %v: auto fragment %d x%v = %v, want half of usable %v",
				tc.factor, frag, tc.charged, got, want)
		}
	}
	// Tiny nodes still get 4 KiB fragments.
	if got := AutoFragmentSize(memsim.Config{CapacityBytes: 1 << 10, UsableFraction: 1}, 3); got != 4<<10 {
		t.Fatalf("auto fragment on a 1 KiB node = %d, want the 4 KiB floor", got)
	}
}

func TestMergeHelpers(t *testing.T) {
	if SumMerge(2, 3) != 5 {
		t.Fatal("SumMerge broken")
	}
	got := ConcatMerge([]int{1}, []int{2, 3})
	if len(got) != 3 || got[2] != 3 {
		t.Fatal("ConcatMerge broken")
	}
}

// foldInScanOrder is the reference Run is checked against: Split the input,
// run the engine over each fragment, and fold the outputs in scan order. It
// also returns the per-fragment unique-key sum.
func foldInScanOrder[V, R any](t *testing.T, spec mapreduce.Spec[string, V, R], text string,
	opts Options, merge MergeFunc[R]) (map[string]R, int) {
	t.Helper()
	frags, err := Split([]byte(text), opts)
	if err != nil {
		t.Fatal(err)
	}
	acc := make(map[string]R)
	fragmentKeys := 0
	for _, frag := range frags {
		res, err := mapreduce.Run(context.Background(), mapreduce.Config{Workers: 1}, spec, frag)
		if err != nil {
			t.Fatal(err)
		}
		fragmentKeys += res.Stats.UniqueKeys
		for _, p := range res.Pairs {
			if prev, ok := acc[p.Key]; ok {
				acc[p.Key] = merge(prev, p.Value)
			} else {
				acc[p.Key] = p.Value
			}
		}
	}
	return acc, fragmentKeys
}

// A non-commutative merge (concatenation in fragment order) must come out
// identical to a fold in scan order even though fragments complete out of
// order in the pool — this is what the reorder buffer exists for.
func TestRunOrderedMergeNonCommutative(t *testing.T) {
	// Varying filler words drift the fragment boundaries, so each
	// fragment's per-key counts differ — the concatenated count sequence
	// fingerprints the fold order.
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		sb.WriteString("k ")
		sb.WriteString(strings.Repeat("z", i%5+1))
		sb.WriteString(" ")
	}
	text := sb.String()
	spec := mapreduce.Spec[string, int, []int]{
		Name:  "concat",
		Split: mapreduce.DelimiterSplitter(' '),
		Map: func(chunk []byte, emit func(string, int)) error {
			for _, w := range strings.Fields(string(chunk)) {
				emit(w, 1)
			}
			return nil
		},
		Reduce: func(_ string, vs []int) ([]int, error) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			return []int{sum}, nil
		},
	}
	opts := Options{FragmentSize: 32}
	want, _ := foldInScanOrder(t, spec, text, opts, ConcatMerge[int])
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Run(context.Background(), mapreduce.Config{Workers: workers}, spec,
			strings.NewReader(text), opts, ConcatMerge[int])
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Map(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: concat order diverged from scan order:\n got %v\nwant %v", workers, got, want)
		}
	}
}

func TestRunScanErrorPropagates(t *testing.T) {
	data := strings.Repeat("x", 5000) // no delimiters
	_, err := Run(context.Background(), mapreduce.Config{}, wcSpec(),
		strings.NewReader(data), Options{FragmentSize: 10, MaxScan: 50}, SumMerge[int])
	if !errors.Is(err, ErrScanLimit) {
		t.Fatalf("err = %v, want ErrScanLimit", err)
	}
}

func TestRunOOMPropagates(t *testing.T) {
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 512, UsableFraction: 1.0})
	cfg := mapreduce.Config{Workers: 1, Memory: acct}
	_, err := Run(context.Background(), cfg, wcSpec(),
		strings.NewReader(strings.Repeat("abc ", 500)), Options{FragmentSize: 1000}, SumMerge[int])
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestRunProducerStopsOnConsumerExit(t *testing.T) {
	// A slow, endless reader: when the pool dies early (OOM), the
	// producer goroutine must stop promptly rather than leak.
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 128, UsableFraction: 1.0})
	cfg := mapreduce.Config{Workers: 1, Memory: acct}
	r := &infiniteWords{}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cfg, wcSpec(), r,
			Options{FragmentSize: 4096}, SumMerge[int])
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, memsim.ErrOutOfMemory) {
			t.Fatalf("err = %v, want ErrOutOfMemory", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run wedged on an infinite input")
	}
}

// infiniteWords yields "aa bb aa bb ..." forever.
type infiniteWords struct{}

func (i *infiniteWords) Read(p []byte) (int, error) {
	for j := range p {
		if j%3 == 2 {
			p[j] = ' '
		} else {
			p[j] = 'a'
		}
	}
	return len(p), nil
}

var _ io.Reader = (*infiniteWords)(nil)

// TestRunCancelMidFragmentNoLeak cancels the context while a pool
// worker is inside a fragment and asserts that (a) the cancellation is
// surfaced and (b) the scan producer and pool goroutines exit rather than
// leaking, blocked on their channels.
func TestRunCancelMidFragmentNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	spec := wcSpec()
	inMap := make(chan struct{}, 1)
	inner := spec.Map
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		select {
		case inMap <- struct{}{}:
		default:
		}
		return inner(chunk, emit)
	}
	done := make(chan error, 1)
	go func() {
		// An endless input: only cancellation can end this run.
		_, err := Run(ctx, mapreduce.Config{Workers: 1}, spec,
			&infiniteWords{}, Options{FragmentSize: 1 << 16}, SumMerge[int])
		done <- err
	}()
	<-inMap // a fragment is inside the engine
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}

	// The producer (and the pool and merge workers) must wind down; poll
	// because goroutine exit is asynchronous with Run's return.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestRunScanErrorAfterFragmentSurfaced feeds an input whose first
// fragments scan cleanly and whose tail has no delimiter within MaxScan:
// the scanner error must surface even though earlier fragments already
// succeeded (a swallowed error here would silently truncate the run).
func TestRunScanErrorAfterFragmentSurfaced(t *testing.T) {
	data := "aa bb cc dd " + strings.Repeat("x", 5000)
	res, err := Run(context.Background(), mapreduce.Config{Workers: 2}, wcSpec(),
		strings.NewReader(data), Options{FragmentSize: 4, MaxScan: 50}, SumMerge[int])
	if !errors.Is(err, ErrScanLimit) {
		t.Fatalf("err = %v (res %v), want ErrScanLimit after successful fragments", err, res)
	}
}

// TestRunFragmentKeysStat: per-fragment unique keys must sum into
// FragmentKeys while UniqueKeys stays the merged count.
func TestRunFragmentKeysStat(t *testing.T) {
	text := strings.Repeat("lorem ipsum dolor ", 200)
	res, err := Run(context.Background(), mapreduce.Config{Workers: 2}, wcSpec(),
		strings.NewReader(text), Options{FragmentSize: 128}, SumMerge[int])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UniqueKeys != 3 {
		t.Fatalf("UniqueKeys = %d, want 3 (merged)", res.Stats.UniqueKeys)
	}
	// Every fragment sees the same 3 words, so the per-fragment sum must be
	// ~3 per fragment — strictly greater than the merged count.
	if res.Stats.FragmentKeys <= res.Stats.UniqueKeys {
		t.Fatalf("FragmentKeys = %d, want > UniqueKeys (%d) across %d fragments",
			res.Stats.FragmentKeys, res.Stats.UniqueKeys, res.Fragments)
	}
	if _, want := foldInScanOrder(t, wcSpec(), text, Options{FragmentSize: 128}, SumMerge[int]); res.Stats.FragmentKeys != want {
		t.Fatalf("FragmentKeys = %d, want the per-fragment sum %d", res.Stats.FragmentKeys, want)
	}
}

// TestRunPoolFitsMemoryBudget runs a swap-less node at AutoFragmentSize
// fragments, and at quarter-size ones, with 1–4 workers. The pool may hold
// only as many fragments as fit the fragment budget, so no run may fail for
// memory or let its peak footprint pass usable RAM — an unbounded pool of
// auto-sized fragments, each filling half of usable RAM, does both.
func TestRunPoolFitsMemoryBudget(t *testing.T) {
	mem := memsim.Config{CapacityBytes: 64 << 10, UsableFraction: 1.0, SwapBytes: 0}
	spec := wcSpec()
	auto := AutoFragmentSize(mem, spec.FootprintFactor)
	text := strings.Repeat("alpha beta gamma delta ", 8_000) // 184 KB: 16+ fragments
	for _, frag := range []int64{auto, auto / 4} {
		for workers := 1; workers <= 4; workers++ {
			name := fmt.Sprintf("frag=%d/workers=%d", frag, workers)
			acct := memsim.NewAccountant(mem)
			res, err := Run(context.Background(), mapreduce.Config{Workers: workers, Memory: acct}, spec,
				strings.NewReader(text), Options{FragmentSize: frag}, SumMerge[int])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := res.Map()["gamma"]; got != 8_000 {
				t.Fatalf("%s: gamma = %d, want 8000", name, got)
			}
			if acct.Peak() > mem.Usable() {
				t.Fatalf("%s: peak footprint %d passed usable RAM %d", name, acct.Peak(), mem.Usable())
			}
			if acct.Footprint() != 0 {
				t.Fatalf("%s: run leaked %d bytes", name, acct.Footprint())
			}
		}
	}
}
