package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// moduleSession runs a module in-process — a node without the wire.
type moduleSession struct {
	mod smartfam.Module
	// wrap optionally intercepts attempts (fault injection).
	wrap func(next func() ([]byte, error)) ([]byte, error)
}

func (s *moduleSession) InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error) {
	run := func() ([]byte, error) { return s.mod.Run(ctx, params) }
	if s.wrap != nil {
		return s.wrap(run)
	}
	return run()
}

// wcFleet builds an N-node coordinator where every node serves the
// word-count module over the same directory store.
func wcFleet(t *testing.T, dir string, n int, wraps map[int]func(func() ([]byte, error)) ([]byte, error)) *Coordinator {
	t.Helper()
	nodes := make([]Node, n)
	for i := range nodes {
		mod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1})
		nodes[i] = Node{
			Name:    nodeName(i),
			Session: &moduleSession{mod: mod, wrap: wraps[i]},
		}
	}
	cfg := fastConfig()
	cfg.MinStragglerAge = time.Hour // keep unit runs deterministic
	return NewCoordinator(nodes, cfg)
}

func nodeName(i int) string { return string(rune('a'+i)) + "-sd" }

func singleNodeReference(t *testing.T, dir string, topN int) *core.WordCountOutput {
	t.Helper()
	mod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1})
	params, err := json.Marshal(core.WordCountParams{
		DataFile: "corpus.txt", PartitionBytes: 16 << 10, EmitPairs: true, TopN: topN,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mod.Run(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	var out core.WordCountOutput
	if err := core.Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestFleetWordCountMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(200_000, 21)
	if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := singleNodeReference(t, dir, 0)
	want := CanonicalWordCount(ref)

	for _, n := range []int{1, 2, 3, 4, 8} {
		c := wcFleet(t, dir, n, nil)
		res, err := c.WordCount(context.Background(), WordCountJob{
			DataFile:      "corpus.txt",
			TotalBytes:    int64(len(text)),
			FragmentBytes: 24 << 10,
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: merged output differs from single-node reference", n)
		}
		if n > 1 && len(res.Stats.PerNode) < 2 {
			t.Fatalf("n=%d: work did not spread: %v", n, res.Stats.PerNode)
		}
		if len(res.Fragments) != len(partitionRangeCount(int64(len(text)), 24<<10)) {
			t.Fatalf("n=%d: %d fragments", n, len(res.Fragments))
		}
	}
}

func partitionRangeCount(total, frag int64) []struct{} {
	n := int((total + frag - 1) / frag)
	return make([]struct{}, n)
}

func TestFleetWordCountSurvivesNodeDeath(t *testing.T) {
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(120_000, 5)
	if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := singleNodeReference(t, dir, 0)
	want := CanonicalWordCount(ref)

	// Node 0 dies on every attempt after its first success.
	var calls atomic.Int64
	wraps := map[int]func(func() ([]byte, error)) ([]byte, error){
		0: func(next func() ([]byte, error)) ([]byte, error) {
			if calls.Add(1) > 1 {
				return nil, errors.New("smartfam: transport torn down")
			}
			return next()
		},
	}
	c := wcFleet(t, dir, 3, wraps)
	res, err := c.WordCount(context.Background(), WordCountJob{
		DataFile:      "corpus.txt",
		TotalBytes:    int64(len(text)),
		FragmentBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
		t.Fatal("output differs from single-node reference after node death")
	}
	if res.Stats.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d, want 1", res.Stats.NodeFailures)
	}
}

func TestFleetWordCountValidation(t *testing.T) {
	c := wcFleet(t, t.TempDir(), 1, nil)
	if _, err := c.WordCount(context.Background(), WordCountJob{TotalBytes: 10}); err == nil {
		t.Fatal("missing data file accepted")
	}
	if _, err := c.WordCount(context.Background(), WordCountJob{DataFile: "f"}); err == nil {
		t.Fatal("missing size accepted")
	}
}

// sealedFleet builds an N-node coordinator where each node serves the
// word-count module over its own share, reading sealed replicated objects,
// plus the host-side store over the same shares.
func sealedFleet(t *testing.T, n, r int) (*Coordinator, *Store, map[string]smartfam.FS) {
	t.Helper()
	shares := make(map[string]smartfam.FS, n)
	nodes := make([]Node, n)
	for i := range nodes {
		name := nodeName(i)
		share := smartfam.DirFS(t.TempDir())
		shares[name] = share
		mod := core.WordCountModule(core.ModuleConfig{Store: core.FSStore(share), Workers: 1})
		nodes[i] = Node{Name: name, Session: &moduleSession{mod: mod}}
	}
	store := NewStore(shares, r, nil)
	cfg := fastConfig()
	cfg.MinStragglerAge = time.Hour
	cfg.Store = store
	return NewCoordinator(nodes, cfg), store, shares
}

func TestFleetWordCountSealedMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(150_000, 33)
	if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := singleNodeReference(t, dir, 0)
	want := CanonicalWordCount(ref)

	for _, n := range []int{2, 3, 4} {
		c, store, _ := sealedFleet(t, n, 2)
		set, err := store.PutFile(context.Background(), "corpus", text, 16<<10)
		if err != nil {
			t.Fatalf("n=%d: PutFile: %v", n, err)
		}
		res, err := c.WordCountSealed(context.Background(), SealedWordCountJob{Set: set})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: sealed fleet output differs from single-node reference", n)
		}
		if res.Stats.CorruptReplicas != 0 {
			t.Fatalf("n=%d: clean run saw corrupt replicas: %+v", n, res.Stats)
		}
	}
}

func TestFleetWordCountSealedHealsBitFlippedReplica(t *testing.T) {
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(90_000, 7)
	if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := singleNodeReference(t, dir, 0)
	want := CanonicalWordCount(ref)

	c, store, shares := sealedFleet(t, 3, 2)
	set, err := store.PutFile(context.Background(), "corpus", text, 12<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip the home copy of the first object: the job must fall back to
	// the surviving replica and repair the damage after the gather.
	victim := set.Objects[0]
	home := store.Replicas(victim)[0]
	raw, err := smartfam.ReadFrom(shares[home], victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := shares[home].Create(victim); err != nil {
		t.Fatal(err)
	}
	if err := shares[home].Append(victim, raw); err != nil {
		t.Fatal(err)
	}

	res, err := c.WordCountSealed(context.Background(), SealedWordCountJob{Set: set})
	if err != nil {
		t.Fatalf("sealed word count with corrupt home replica: %v", err)
	}
	if got := CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
		t.Fatal("output differs from single-node reference with a corrupt replica in play")
	}
	if res.Stats.CorruptReplicas < 1 || res.Stats.ReplicaFallbacks < 1 {
		t.Fatalf("corruption not detected: %+v", res.Stats)
	}
	if res.Stats.ReadRepairs < 1 {
		t.Fatalf("corrupt copy not healed after the gather: %+v", res.Stats)
	}
	healed, err := smartfam.ReadFrom(shares[home], victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smartfam.VerifyBlob(healed); err != nil {
		t.Fatalf("home copy still corrupt: %v", err)
	}
}
