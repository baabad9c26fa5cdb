package workloads

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mcsd/internal/mapreduce"
)

// oneTaskMax is the smallest default map task (chunks are at least
// 64 KiB at every worker count). Inputs of the one-task differential stay
// inside it, so the one-worker run, which reduces straight from its
// task's records, is compared with multi-worker runs over the very same
// task; oneTaskInput leaves the generators room to finish a line.
const (
	oneTaskMax   = 64 << 10
	oneTaskInput = 48 << 10
)

// TestOneTaskRunMatchesParallel is the differential check of the engine's
// one-task path: each workload at Workers: 1 over one chunk must give the
// pairs of the Workers: 2 and Workers: 4 runs and of RunSequential — in
// the same order when the spec orders keys — and report the same
// emission and key counts; a Map that panics after emitting on its first
// attempt must leave a clean run's pairs behind it.
func TestOneTaskRunMatchesParallel(t *testing.T) {
	keys := GenerateKeys(6, 3)
	points, _ := GeneratePoints(600, 3, 4, 5)
	encoded, dim, err := EncodePoints(points)
	if err != nil {
		t.Fatal(err)
	}
	a, b := RandomMatrix(24, 16, 1), RandomMatrix(16, 20, 2)

	t.Run("wordcount", func(t *testing.T) {
		checkOneTask(t, WordCountSpec(), GenerateTextBytes(oneTaskInput, 1))
	})
	t.Run("wordcount-no-combine", func(t *testing.T) {
		spec := WordCountSpec()
		spec.Combine = nil
		checkOneTask(t, spec, GenerateTextBytes(oneTaskInput, 2))
	})
	t.Run("stringmatch", func(t *testing.T) {
		checkOneTask(t, StringMatchSpec(keys), GenerateEncryptBytes(oneTaskInput, 4, keys, 0.05))
	})
	t.Run("dbselect", func(t *testing.T) {
		checkOneTask(t, DBSelectSpec(DBQuery{GroupBy: "product", MinPrice: 100}), GenerateSalesBytes(oneTaskInput, 6))
	})
	t.Run("histogram", func(t *testing.T) {
		checkOneTask(t, HistogramSpec(), GenerateBitmap(oneTaskInput, 7))
	})
	t.Run("kmeans", func(t *testing.T) {
		checkOneTask(t, kmeansSpec(points[:4], dim), encoded)
	})
	t.Run("matmul", func(t *testing.T) {
		checkOneTask(t, MatMulSpec(a, b), RowIndexInput(a.Rows))
	})
}

// checkOneTask runs spec over input at one, two and four workers and
// sequentially, and once more at one worker with a first map attempt that
// emits everything and then panics.
func checkOneTask[K comparable, V any, R any](t *testing.T, spec mapreduce.Spec[K, V, R], input []byte) {
	t.Helper()
	if len(input) > oneTaskMax {
		t.Fatalf("input of %d B exceeds one task", len(input))
	}
	ctx := context.Background()
	solo, err := mapreduce.Run(ctx, mapreduce.Config{Workers: 1}, spec, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Pairs) == 0 {
		t.Fatal("one-task run produced no pairs")
	}
	if st := solo.Stats; st.MapTasks != 1 || st.ReduceTasks != 1 {
		t.Fatalf("one-task run: MapTasks = %d, ReduceTasks = %d, want 1 and 1", st.MapTasks, st.ReduceTasks)
	}
	check := func(name string, got *mapreduce.Result[K, R]) {
		t.Helper()
		if err := samePairs(spec, solo.Pairs, got.Pairs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, g := solo.Stats, got.Stats
		if s.PairsEmitted != g.PairsEmitted || s.UniqueKeys != g.UniqueKeys || s.FragmentKeys != g.FragmentKeys {
			t.Fatalf("%s: PairsEmitted/UniqueKeys/FragmentKeys = %d/%d/%d, one task reports %d/%d/%d",
				name, g.PairsEmitted, g.UniqueKeys, g.FragmentKeys, s.PairsEmitted, s.UniqueKeys, s.FragmentKeys)
		}
	}
	for _, workers := range []int{2, 4} {
		res, err := mapreduce.Run(ctx, mapreduce.Config{Workers: workers}, spec, input)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MapTasks != 1 {
			t.Fatalf("workers=%d: MapTasks = %d, want the same one task", workers, res.Stats.MapTasks)
		}
		check(fmt.Sprintf("workers=%d", workers), res)
	}
	seq, err := mapreduce.RunSequential(ctx, mapreduce.Config{Workers: 1}, spec, input)
	if err != nil {
		t.Fatal(err)
	}
	check("sequential", seq)

	flaky := spec
	first := true
	flaky.Map = func(chunk []byte, emit func(K, V)) error {
		if err := spec.Map(chunk, emit); err != nil {
			return err
		}
		if first {
			first = false
			panic("map fails after emitting")
		}
		return nil
	}
	retried, err := mapreduce.Run(ctx, mapreduce.Config{Workers: 1}, flaky, input)
	if err != nil {
		t.Fatal(err)
	}
	if retried.Stats.TaskRetries != 1 {
		t.Fatalf("retried run: TaskRetries = %d, want 1", retried.Stats.TaskRetries)
	}
	check("retried", retried)
}

// samePairs compares two runs' pairs: element by element when the spec
// orders keys, as key sets otherwise.
func samePairs[K comparable, V any, R any](spec mapreduce.Spec[K, V, R], want, got []mapreduce.Pair[K, R]) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, one task gave %d", len(got), len(want))
	}
	if spec.Less != nil {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Errorf("pair %d = %+v, one task gave %+v", i, got[i], want[i])
			}
		}
		return nil
	}
	wm := make(map[K]R, len(want))
	for _, p := range want {
		wm[p.Key] = p.Value
	}
	for _, p := range got {
		if w, ok := wm[p.Key]; !ok || !reflect.DeepEqual(p.Value, w) {
			return fmt.Errorf("key %v = %v, one task gave %v (present %v)", p.Key, p.Value, w, ok)
		}
	}
	return nil
}
