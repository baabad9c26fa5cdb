package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestWordTableForcedCollisions gives every key the same hash, so each
// lookup walks one long probe chain across several grows, and checks that
// every key still resolves to its own record by the key compare alone.
func TestWordTableForcedCollisions(t *testing.T) {
	const h = 0x5a5a | 1
	tbl := newWordTable[int]()
	var keys []string
	for i := range 3 * internInitSlots {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	for i, k := range keys {
		if tbl.lookup([]byte(k), h) != nil {
			t.Fatalf("key %q found before insert", k)
		}
		tbl.insert(h, &kvrec[string, int]{key: k, vs: []int{i}})
	}
	for i, k := range keys {
		rec := tbl.lookup([]byte(k), h)
		if rec == nil || rec.key != k || rec.vs[0] != i {
			t.Fatalf("lookup(%q) = %+v, want its own record %d", k, rec, i)
		}
	}
	if tbl.lookup([]byte("absent"), h) != nil {
		t.Fatal("absent key resolved to a colliding record")
	}
	tbl.reset()
	if tbl.lookup([]byte(keys[0]), h) != nil {
		t.Fatal("reset table still holds a record")
	}
}

// TestInternHashShortKeys exercises the inline path at every length it
// covers and the maphash fallback just past it. Keys that share all but
// one byte with a base — so each load sees the same bytes but one — must
// still hash apart, as must the same byte repeated at different lengths
// (the 1–3 byte loads read identical bytes there; only the length tells
// them apart).
func TestInternHashShortKeys(t *testing.T) {
	seen := make(map[uint64]string)
	add := func(k string) {
		h := internHash([]byte(k))
		if h&1 == 0 {
			t.Fatalf("internHash(%q) = %#x: low bit clear, would read as an empty slot", k, h)
		}
		if other, ok := seen[h]; ok && other != k {
			t.Fatalf("internHash(%q) == internHash(%q)", k, other)
		}
		seen[h] = k
		// The hash depends on the bytes only, not where they live.
		buf := append([]byte("prefix"), k...)
		if got := internHash(buf[len("prefix"):]); got != h {
			t.Fatalf("internHash(%q) differs by backing array: %#x vs %#x", k, got, h)
		}
	}
	for n := 0; n <= 17; n++ {
		base := strings.Repeat("a", n)
		add(base)
		for i := range n {
			for _, c := range []byte{'b', 0, 0xff} {
				k := []byte(base)
				k[i] = c
				add(string(k))
			}
		}
		add(strings.Repeat("ab", n)[:n]) // shared prefix with the next length
	}
	// Shared suffixes: the high load of a longer key repeats a shorter one.
	for n := 1; n <= 17; n++ {
		add("x" + strings.Repeat("z", n))
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
	if got := (Config{Workers: 1}).chunkSize(3 * soloTaskMax); got != soloTaskMax {
		t.Fatalf("single-worker task size over a large input = %d, want the %d cap", got, soloTaskMax)
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
