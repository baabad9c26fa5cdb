package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mcsd/internal/memsim"
)

// wcSpec is an inline word-count: the canonical Phoenix example.
func wcSpec() Spec[string, int, int] {
	return Spec[string, int, int]{
		Name:  "wc-test",
		Split: DelimiterSplitter(' ', '\n'),
		Map: func(chunk []byte, emit func(string, int)) error {
			for _, w := range bytes.Fields(chunk) {
				emit(string(w), 1)
			}
			return nil
		},
		Reduce: func(_ string, values []int) (int, error) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			return sum, nil
		},
		FootprintFactor: 3,
	}
}

func naiveCount(text string) map[string]int {
	m := make(map[string]int)
	for _, w := range strings.Fields(text) {
		m[w]++
	}
	return m
}

func TestRunWordCountMatchesNaive(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog the fox"
	res, err := Run(context.Background(), Config{Workers: 4}, wcSpec(), []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := naiveCount(text)
	got := res.Map()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	res, err := Run(context.Background(), Config{Workers: 2}, wcSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("empty input produced %d pairs", len(res.Pairs))
	}
	if res.Stats.MapTasks != 0 {
		t.Fatalf("empty input ran %d map tasks", res.Stats.MapTasks)
	}
}

func TestRunRejectsIncompleteSpec(t *testing.T) {
	_, err := Run(context.Background(), Config{}, Spec[string, int, int]{}, []byte("x"))
	if !errors.Is(err, ErrSpecIncomplete) {
		t.Fatalf("err = %v, want ErrSpecIncomplete", err)
	}
	_, err = RunSequential(context.Background(), Config{}, Spec[string, int, int]{}, []byte("x"))
	if !errors.Is(err, ErrSpecIncomplete) {
		t.Fatalf("sequential err = %v, want ErrSpecIncomplete", err)
	}
}

// Property: parallel Run equals RunSequential equals a naive loop, for any
// worker count, chunk size and random word soup.
func TestRunEquivalenceProperty(t *testing.T) {
	prop := func(words []string, workers, chunk uint8) bool {
		var sb strings.Builder
		for _, w := range words {
			for _, r := range w {
				if r > ' ' && r < 127 {
					sb.WriteRune(r)
				}
			}
			sb.WriteByte(' ')
		}
		text := sb.String()
		cfg := Config{Workers: int(workers)%8 + 1, ChunkSize: int(chunk)%97 + 1}
		par, err := Run(context.Background(), cfg, wcSpec(), []byte(text))
		if err != nil {
			return false
		}
		seq, err := RunSequential(context.Background(), cfg, wcSpec(), []byte(text))
		if err != nil {
			return false
		}
		want := naiveCount(text)
		pm, sm := par.Map(), seq.Map()
		if len(pm) != len(want) || len(sm) != len(want) {
			return false
		}
		for k, v := range want {
			if pm[k] != v || sm[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSortedOutput(t *testing.T) {
	spec := wcSpec()
	spec.Less = func(a, b string) bool { return a < b }
	text := "zeta alpha mu beta alpha zeta zeta"
	res, err := Run(context.Background(), Config{Workers: 4, NumReducers: 3}, spec, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i-1].Key > res.Pairs[i].Key {
			t.Fatalf("output not sorted: %q before %q", res.Pairs[i-1].Key, res.Pairs[i].Key)
		}
	}
	if got := res.Map()["zeta"]; got != 3 {
		t.Fatalf("zeta = %d, want 3", got)
	}
}

func TestRunCombinerPreservesResult(t *testing.T) {
	spec := wcSpec()
	var combined atomic.Int64
	spec.Combine = func(_ string, values []int) []int {
		combined.Add(1)
		sum := 0
		for _, v := range values {
			sum += v
		}
		return []int{sum}
	}
	text := strings.Repeat("apple banana apple ", 100)
	res, err := Run(context.Background(), Config{Workers: 4}, spec, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Map()["apple"]; got != 200 {
		t.Fatalf("apple = %d, want 200", got)
	}
	if combined.Load() == 0 {
		t.Fatal("combiner never invoked")
	}
}

func TestRunMemoryAdmission(t *testing.T) {
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 1024, UsableFraction: 1.0})
	cfg := Config{Workers: 2, Memory: acct}
	// 3x footprint of 600 bytes = 1800 > 1024: must OOM.
	input := bytes.Repeat([]byte("w "), 300)
	_, err := Run(context.Background(), cfg, wcSpec(), input)
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if acct.Footprint() != 0 {
		t.Fatalf("failed run leaked %d bytes", acct.Footprint())
	}
	// A small input must pass and release afterwards.
	if _, err := Run(context.Background(), cfg, wcSpec(), []byte("a b c")); err != nil {
		t.Fatal(err)
	}
	if acct.Footprint() != 0 {
		t.Fatalf("successful run leaked %d bytes", acct.Footprint())
	}
}

func TestSequentialMemoryAdmission(t *testing.T) {
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 1024, UsableFraction: 1.0})
	input := bytes.Repeat([]byte("w "), 300)
	_, err := RunSequential(context.Background(), Config{Memory: acct}, wcSpec(), input)
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestEffectiveFootprintCharged: both engines reserve input × the factor
// EffectiveFootprint resolves — an unset factor charges 2, a factor below 1
// charges as given.
func TestEffectiveFootprintCharged(t *testing.T) {
	input := bytes.Repeat([]byte("w "), 300) // 600 bytes
	for _, tc := range []struct {
		factor, charged float64
	}{
		{0, 2},
		{-1, 2},
		{0.5, 0.5},
		{3, 3},
	} {
		if got := EffectiveFootprint(tc.factor); got != tc.charged {
			t.Fatalf("EffectiveFootprint(%v) = %v, want %v", tc.factor, got, tc.charged)
		}
		spec := wcSpec()
		spec.FootprintFactor = tc.factor
		for name, run := range map[string]func(context.Context, Config, Spec[string, int, int], []byte) (*Result[string, int], error){
			"Run": Run[string, int, int], "RunSequential": RunSequential[string, int, int],
		} {
			acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 4096, UsableFraction: 1.0})
			if _, err := run(context.Background(), Config{Workers: 2, Memory: acct}, spec, input); err != nil {
				t.Fatalf("%s factor %v: %v", name, tc.factor, err)
			}
			if want := int64(float64(len(input)) * tc.charged); acct.Peak() != want {
				t.Fatalf("%s factor %v: charged %d bytes, want %d", name, tc.factor, acct.Peak(), want)
			}
		}
	}
}

func TestRunMapPanicFailsAfterRetries(t *testing.T) {
	spec := wcSpec()
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		panic("boom")
	}
	_, err := Run(context.Background(), Config{Workers: 2, MaxTaskRetries: 1}, spec, []byte("a b c"))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestRunMapErrorRecoveredByRetry(t *testing.T) {
	spec := wcSpec()
	var calls atomic.Int64
	inner := spec.Map
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("transient failure")
		}
		return inner(chunk, emit)
	}
	res, err := Run(context.Background(), Config{Workers: 1, ChunkSize: 1 << 20, MaxTaskRetries: 3}, spec, []byte("a b a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TaskRetries == 0 {
		t.Fatal("retry not recorded")
	}
	// The failed attempt's emissions must not be double counted.
	if got := res.Map()["a"]; got != 2 {
		t.Fatalf("a = %d, want 2 (failed attempt leaked emissions?)", got)
	}
}

func TestRunReducePanicSurfaces(t *testing.T) {
	spec := wcSpec()
	spec.Reduce = func(k string, values []int) (int, error) {
		if k == "bad" {
			panic("reduce blew up")
		}
		return len(values), nil
	}
	_, err := Run(context.Background(), Config{Workers: 2, MaxTaskRetries: 1}, spec, []byte("good bad good"))
	if err == nil || !strings.Contains(err.Error(), "reduce blew up") {
		t.Fatalf("err = %v, want reduce panic surfaced", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	spec := wcSpec()
	started := make(chan struct{}, 64)
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Config{Workers: 2, ChunkSize: 2}, spec, bytes.Repeat([]byte("w "), 500))
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

func TestRunStats(t *testing.T) {
	text := strings.Repeat("alpha beta gamma ", 50)
	res, err := Run(context.Background(), Config{Workers: 3, NumReducers: 5, ChunkSize: 64}, wcSpec(), []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.MapTasks < 2 {
		t.Fatalf("MapTasks = %d, want several with 64-byte chunks", s.MapTasks)
	}
	if s.ReduceTasks != 5 {
		t.Fatalf("ReduceTasks = %d, want 5", s.ReduceTasks)
	}
	if s.PairsEmitted != 150 {
		t.Fatalf("PairsEmitted = %d, want 150", s.PairsEmitted)
	}
	if s.UniqueKeys != 3 || len(res.Pairs) != 3 {
		t.Fatalf("UniqueKeys = %d, Pairs = %d, want 3/3", s.UniqueKeys, len(res.Pairs))
	}
	if s.InputBytes != int64(len(text)) {
		t.Fatalf("InputBytes = %d, want %d", s.InputBytes, len(text))
	}
	if s.Total() <= 0 {
		t.Fatal("phase times not recorded")
	}
}

func TestRunNonStringKeys(t *testing.T) {
	// Matrix-multiply-style keys: [2]int indices.
	type cell = [2]int
	spec := Spec[cell, int, int]{
		Name: "cells",
		Map: func(chunk []byte, emit func(cell, int)) error {
			for i, b := range chunk {
				emit(cell{i % 3, int(b) % 3}, 1)
			}
			return nil
		},
		Reduce: func(_ cell, values []int) (int, error) { return len(values), nil },
		Less: func(a, b cell) bool {
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			return a[1] < b[1]
		},
	}
	res, err := Run(context.Background(), Config{Workers: 4, NumReducers: 4, ChunkSize: 8}, spec, []byte("abcdefghijklmnopqrstuvwxyz"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 26 {
		t.Fatalf("cells sum to %d, want 26", total)
	}
	for i := 1; i < len(res.Pairs); i++ {
		a, b := res.Pairs[i-1].Key, res.Pairs[i].Key
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("keys not strictly sorted: %v then %v", a, b)
		}
	}
}

func TestRunCustomPartitioner(t *testing.T) {
	// Range partitioner: keys starting a-m go to partition 0, n-z to 1.
	spec := wcSpec()
	spec.Less = func(a, b string) bool { return a < b }
	var calls atomic.Int64
	spec.PartitionFn = func(key string, numReducers int) int {
		calls.Add(1)
		if key[0] <= 'm' {
			return 0
		}
		return 1
	}
	text := "apple zebra mango nectarine apple banana yak"
	res, err := Run(context.Background(), Config{Workers: 3, NumReducers: 2}, spec, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("custom partitioner never invoked")
	}
	want := naiveCount(text)
	got := res.Map()
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
	// Output still globally sorted via the merge stage.
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i-1].Key >= res.Pairs[i].Key {
			t.Fatal("output not sorted with range partitioner")
		}
	}
}

func TestRunCustomPartitionerOutOfRangeFolded(t *testing.T) {
	spec := wcSpec()
	spec.PartitionFn = func(key string, numReducers int) int {
		return -7 // deliberately out of range
	}
	res, err := Run(context.Background(), Config{Workers: 2, NumReducers: 3}, spec, []byte("a b a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Map()["a"]; got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
}

func TestMergeSortedHandlesEmptyRuns(t *testing.T) {
	runs := [][]Pair[int, string]{
		nil,
		{{1, "a"}, {4, "d"}},
		{},
		{{2, "b"}, {3, "c"}},
	}
	out := MergeSorted(runs, func(a, b int) bool { return a < b })
	if len(out) != 4 {
		t.Fatalf("merged %d pairs, want 4", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key > out[i].Key {
			t.Fatalf("merge not sorted at %d", i)
		}
	}
}

func TestRunDegenerateShapes(t *testing.T) {
	text := "x y z x"
	shapes := []Config{
		{Workers: 1, NumReducers: 1},
		{Workers: 16, NumReducers: 1}, // workers >> chunks
		{Workers: 1, NumReducers: 64}, // reducers >> keys
		{Workers: 7, NumReducers: 13, ChunkSize: 1},
	}
	want := naiveCount(text)
	for _, cfg := range shapes {
		res, err := Run(context.Background(), cfg, wcSpec(), []byte(text))
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		got := res.Map()
		if len(got) != len(want) {
			t.Fatalf("config %+v: %d keys, want %d", cfg, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("config %+v: count[%q] = %d, want %d", cfg, k, got[k], v)
			}
		}
	}
}

func TestRunSingleByteInput(t *testing.T) {
	res, err := Run(context.Background(), Config{Workers: 4}, wcSpec(), []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Map()["a"]; got != 1 {
		t.Fatalf("a = %d, want 1", got)
	}
}

func TestRunValuesSliceNotShared(t *testing.T) {
	// A Reduce that mutates its values slice must not corrupt another
	// key's values (worker buffers must be per-key).
	spec := wcSpec()
	spec.Reduce = func(_ string, values []int) (int, error) {
		for i := range values {
			values[i] = -999 // hostile reduce
		}
		return len(values), nil
	}
	res, err := Run(context.Background(), Config{Workers: 2, NumReducers: 2}, spec,
		[]byte("a a b b b"))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Map()
	if m["a"] != 2 || m["b"] != 3 {
		t.Fatalf("hostile reduce corrupted counts: %v", m)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{}, wcSpec(), []byte("a")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := RunSequential(ctx, Config{}, wcSpec(), []byte("a")); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
}

// TestRunStreamingCombineRetryIdempotent is the streaming-combine analogue
// of TestRunMapErrorRecoveredByRetry: a map attempt that emits and then
// fails must not leak its partial, already-combined emissions.
func TestRunStreamingCombineRetryIdempotent(t *testing.T) {
	spec := wcSpec()
	spec.Combine = func(_ string, values []int) []int {
		sum := 0
		for _, v := range values {
			sum += v
		}
		values[0] = sum
		return values[:1]
	}
	var calls atomic.Int64
	inner := spec.Map
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		first := calls.Add(1) == 1
		if err := inner(chunk, emit); err != nil {
			return err
		}
		if first {
			return fmt.Errorf("transient failure after emitting")
		}
		return nil
	}
	res, err := Run(context.Background(), Config{Workers: 1, ChunkSize: 1 << 20, MaxTaskRetries: 3}, spec, []byte("a b a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TaskRetries == 0 {
		t.Fatal("retry not recorded")
	}
	if got := res.Map()["a"]; got != 2 {
		t.Fatalf("a = %d, want 2 (failed streaming attempt leaked emissions?)", got)
	}
	if got := res.Map()["b"]; got != 1 {
		t.Fatalf("b = %d, want 1", got)
	}
}

// TestRunMultiTaskRetryIdempotent is the multi-task analogue of the two
// one-task retry tests above: two workers over several chunks, with and
// without a combiner, where every task's first attempt fails after
// emitting. The retried run must count exactly what a sequential run
// counts: a failed attempt's records never reach the worker's buffers.
func TestRunMultiTaskRetryIdempotent(t *testing.T) {
	text := strings.Repeat("alpha beta gamma alpha delta beta alpha\n", 40)
	want, err := RunSequential(context.Background(), Config{}, wcSpec(), []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	sum := func(_ string, values []int) []int {
		total := 0
		for _, v := range values {
			total += v
		}
		values[0] = total
		return values[:1]
	}
	for _, tc := range []struct {
		name    string
		combine func(string, []int) []int
	}{{"no-combine", nil}, {"combine", sum}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := wcSpec()
			spec.Combine = tc.combine
			var failed sync.Map // first byte of a chunk -> its attempt failed once
			inner := spec.Map
			spec.Map = func(chunk []byte, emit func(string, int)) error {
				if err := inner(chunk, emit); err != nil {
					return err
				}
				if _, again := failed.LoadOrStore(&chunk[0], true); !again {
					return fmt.Errorf("transient failure after emitting")
				}
				return nil
			}
			cfg := Config{Workers: 2, ChunkSize: 64, MaxTaskRetries: 1}
			res, err := Run(context.Background(), cfg, spec, []byte(text))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.MapTasks < 4 {
				t.Fatalf("%d map tasks, want several", res.Stats.MapTasks)
			}
			if res.Stats.TaskRetries != res.Stats.MapTasks {
				t.Fatalf("%d retries over %d tasks, want one each", res.Stats.TaskRetries, res.Stats.MapTasks)
			}
			if got, wantM := res.Map(), want.Map(); !maps.Equal(got, wantM) {
				t.Fatalf("counts = %v, want %v (a failed attempt leaked emissions?)", got, wantM)
			}
			if res.Stats.PairsEmitted != want.Stats.PairsEmitted {
				t.Fatalf("PairsEmitted = %d, want %d", res.Stats.PairsEmitted, want.Stats.PairsEmitted)
			}
		})
	}
}

// TestRunStreamingCombineFoldsLongKeys pushes one key far past the
// streaming fold threshold so the in-flight folds (emit-side and
// flush-side) are both exercised.
func TestRunStreamingCombineFoldsLongKeys(t *testing.T) {
	spec := wcSpec()
	spec.Combine = func(_ string, values []int) []int {
		sum := 0
		for _, v := range values {
			sum += v
		}
		values[0] = sum
		return values[:1]
	}
	n := streamFoldLen*5 + 7
	text := strings.Repeat("hot ", n) + "cold"
	res, err := Run(context.Background(), Config{Workers: 2, ChunkSize: 128}, spec, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Map()
	if m["hot"] != n || m["cold"] != 1 {
		t.Fatalf("counts = %v, want hot=%d cold=1", m, n)
	}
	if res.Stats.PairsEmitted != int64(n+1) {
		t.Fatalf("PairsEmitted = %d, want %d (raw emissions, not post-combine)", res.Stats.PairsEmitted, n+1)
	}
}

// TestRunStreamingEqualsStagedProperty: a run whose task records fold
// through a combiner as they stream in and one whose records stage every
// value until the task splices them must be observationally identical.
func TestRunStreamingEqualsStagedProperty(t *testing.T) {
	prop := func(words []string, workers, chunk uint8) bool {
		var sb strings.Builder
		for _, w := range words {
			for _, r := range w {
				if r > ' ' && r < 127 {
					sb.WriteRune(r)
				}
			}
			sb.WriteByte(' ')
		}
		text := sb.String()
		cfg := Config{Workers: int(workers)%8 + 1, ChunkSize: int(chunk)%97 + 1}
		plain, err := Run(context.Background(), cfg, wcSpec(), []byte(text))
		if err != nil {
			return false
		}
		combSpec := wcSpec()
		combSpec.Combine = func(_ string, values []int) []int {
			sum := 0
			for _, v := range values {
				sum += v
			}
			values[0] = sum
			return values[:1]
		}
		combined, err := Run(context.Background(), cfg, combSpec, []byte(text))
		if err != nil {
			return false
		}
		if plain.Stats.PairsEmitted != combined.Stats.PairsEmitted {
			return false
		}
		sm, tm := plain.Map(), combined.Map()
		if len(sm) != len(tm) {
			return false
		}
		for k, v := range sm {
			if tm[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShuffleAndFragmentStats(t *testing.T) {
	spec := wcSpec()
	spec.Less = func(a, b string) bool { return a < b }
	text := strings.Repeat("alpha beta gamma delta ", 200)
	res, err := Run(context.Background(), Config{Workers: 4, NumReducers: 4, ChunkSize: 64}, spec, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShuffleTime <= 0 {
		t.Fatalf("ShuffleTime = %v, want > 0", res.Stats.ShuffleTime)
	}
	if res.Stats.FragmentKeys != res.Stats.UniqueKeys {
		t.Fatalf("FragmentKeys = %d, want UniqueKeys = %d for a single run",
			res.Stats.FragmentKeys, res.Stats.UniqueKeys)
	}
}

// TestSingleWorkerMapsOneTask pins the one-task rule: a single worker has
// no load to balance, so its run maps the whole input as one task — and a
// cancelled run still reports the cancellation.
func TestSingleWorkerMapsOneTask(t *testing.T) {
	input := bytes.Repeat([]byte("alpha beta gamma "), 20_000) // 340 KB
	res, err := Run(context.Background(), Config{Workers: 1}, wcSpec(), input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapTasks != 1 {
		t.Fatalf("single-worker MapTasks = %d, want 1", res.Stats.MapTasks)
	}
	if got := res.Map()["beta"]; got != 20_000 {
		t.Fatalf("count[beta] = %d, want 20000", got)
	}
	if got := (Config{Workers: 1}).chunkSize(3 * SoloTaskMax); got != SoloTaskMax {
		t.Fatalf("single-worker task size over a large input = %d, want the %d cap", got, SoloTaskMax)
	}
	if got := (Config{Workers: 2}).chunkSize(len(input)); got >= len(input) {
		t.Fatalf("two-worker task size %d, want several tasks over %d B", got, len(input))
	}

	spec := wcSpec()
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	spec.Map = func(chunk []byte, emit func(string, int)) error {
		close(started)
		<-ctx.Done()
		return nil
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Config{Workers: 1}, spec, input)
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled single-worker run: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled single-worker run did not return")
	}
}
