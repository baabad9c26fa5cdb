package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
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
func wcFleet(t *testing.T, dir string, n int, wraps map[int]func(func() ([]byte, error)) ([]byte, error)) *fleet.Coordinator {
	t.Helper()
	nodes := make([]fleet.Node, n)
	for i := range nodes {
		mod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1})
		nodes[i] = fleet.Node{
			Name:    nodeName(i),
			Session: &moduleSession{mod: mod, wrap: wraps[i]},
		}
	}
	cfg := fleet.FastConfig()
	cfg.MinStragglerAge = time.Hour // keep unit runs deterministic
	return fleet.NewCoordinator(nodes, cfg)
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
	want := fleet.CanonicalWordCount(ref)

	for _, n := range []int{1, 2, 3, 4, 8} {
		c := wcFleet(t, dir, n, nil)
		res, err := c.WordCount(context.Background(), fleet.WordCountJob{
			DataFile:      "corpus.txt",
			TotalBytes:    int64(len(text)),
			FragmentBytes: 24 << 10,
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := fleet.CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
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

// TestFleetNodeCombinePrediction puts the saving of a node-level combine on
// record at perfbench's fleet_wc shape — 8 MiB of the generator's Zipf
// text, 48 fragments, 4 nodes under HRW placement. It sums the distinct
// keys, and the binary run bytes, that the fragments answer with against
// one merged run per node, a node's keys being the union of its
// fragments'. DESIGN.md §5g quotes the logged numbers.
func TestFleetNodeCombinePrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("word-counts 8 MiB")
	}
	// perfbench's file name, node names and corpus generator seed: the
	// same fragment keys, so the same placement.
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(8<<20, 2012)
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "data", "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	const fragments, nodes = 48, 4
	frags, err := fleet.RangeFragments(fleet.WordCountJob{
		DataFile:      "data/corpus.txt",
		TotalBytes:    int64(len(text)),
		FragmentBytes: (int64(len(text)) + fragments - 1) / fragments,
	})
	if err != nil || len(frags) != fragments {
		t.Fatalf("%d fragments, err %v", len(frags), err)
	}
	ring := fleet.NewRing()
	for i := 0; i < nodes; i++ {
		ring.Add(fmt.Sprintf("sd%d", i))
	}
	mod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1})
	perNode := make(map[string]map[string]int)
	fragKeys, fragBytes := 0, 0
	for _, fr := range frags {
		raw, err := mod.Run(context.Background(), fr.Params)
		if err != nil {
			t.Fatal(err)
		}
		var out core.WordCountOutput
		if err := core.Decode(raw, &out); err != nil {
			t.Fatal(err)
		}
		fragKeys += len(out.Pairs)
		fragBytes += len(raw)
		owner, _ := ring.Owner(fr.Key)
		if perNode[owner] == nil {
			perNode[owner] = make(map[string]int)
		}
		for _, p := range out.Pairs {
			perNode[owner][p.Word] += p.Count
		}
	}
	nodeKeys, nodeBytes := 0, 0
	for _, counts := range perNode {
		run := core.WordCountOutput{UniqueWords: len(counts)}
		for w, n := range counts {
			run.Pairs = append(run.Pairs, core.WordFreq{Word: w, Count: n})
			run.TotalWords += int64(n)
		}
		slices.SortFunc(run.Pairs, func(a, b core.WordFreq) int { return strings.Compare(a.Word, b.Word) })
		for _, p := range workloads.TopWords(counts, 1) {
			run.Top = append(run.Top, core.WordFreq{Word: p.Key, Count: p.Value})
		}
		raw, err := run.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		nodeKeys += len(counts)
		nodeBytes += len(raw)
	}
	if len(perNode) != nodes {
		t.Fatalf("HRW placed the fragments on %d nodes, want %d", len(perNode), nodes)
	}
	t.Logf("distinct keys: %d summed over %d fragments, %d over %d nodes (%.1f %%)",
		fragKeys, fragments, nodeKeys, nodes, 100*float64(nodeKeys)/float64(fragKeys))
	t.Logf("binary run bytes: %d over fragments, %d over nodes (%.1f %%)",
		fragBytes, nodeBytes, 100*float64(nodeBytes)/float64(fragBytes))
	if nodeKeys >= fragKeys || nodeBytes >= fragBytes {
		t.Fatalf("a node's union of keys saved nothing: %d vs %d keys, %d vs %d B", nodeKeys, fragKeys, nodeBytes, fragBytes)
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
	want := fleet.CanonicalWordCount(ref)

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
	res, err := c.WordCount(context.Background(), fleet.WordCountJob{
		DataFile:      "corpus.txt",
		TotalBytes:    int64(len(text)),
		FragmentBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fleet.CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
		t.Fatal("output differs from single-node reference after node death")
	}
	if res.Stats.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d, want 1", res.Stats.NodeFailures)
	}
}

// scriptSession runs the word-count module in-process, with every attempt
// handed to script first: it sees the fragment's params and decides
// whether, when and how the real run answers.
type scriptSession struct {
	mod    smartfam.Module
	script func(ctx context.Context, params []byte, run func() ([]byte, error)) ([]byte, error)
}

func (s *scriptSession) InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error) {
	return s.script(ctx, params, func() ([]byte, error) { return s.mod.Run(ctx, params) })
}

// TestFleetWordCountFoldsOnlyFirstWins poisons every answer that must not
// count: node a-sd answers fragment 0 only after b-sd's speculative attempt
// has won it, and node c-sd fails fragment 2 with a payload attached. Both
// payloads are well-formed records of a word the corpus does not hold, so
// folding either one would show in the output.
func TestFleetWordCountFoldsOnlyFirstWins(t *testing.T) {
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(60_000, 9)
	if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fleet.CanonicalWordCount(singleNodeReference(t, dir, 0))
	poison, err := core.WordCountOutput{TotalWords: 1 << 20, UniqueWords: 1,
		Pairs: []core.WordFreq{{Word: "poison", Count: 1 << 20}}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	frags, err := fleet.RangeFragments(fleet.WordCountJob{DataFile: "corpus.txt", TotalBytes: int64(len(text)), FragmentBytes: 12 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Pin placement: fragment 0 is a-sd's with b-sd as its speculation
	// target, fragment 2 is c-sd's with b-sd as its fallback, the rest b-sd's.
	for i := range frags {
		frags[i].Replicas = []string{"b-sd"}
	}
	frags[0].Replicas = []string{"a-sd", "b-sd"}
	frags[2].Replicas = []string{"c-sd", "b-sd"}
	last := len(frags) - 1

	var (
		bWon     = make(chan struct{}) // b-sd has answered fragment 0
		lateSent = make(chan struct{}) // a-sd's late duplicate is on its way
		cCalls   atomic.Int64
	)
	wait := func(ctx context.Context, ch <-chan struct{}, d time.Duration) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
			return nil
		}
	}
	mod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1})
	nodes := []fleet.Node{
		{Name: "a-sd", Session: &scriptSession{mod: mod, script: func(ctx context.Context, _ []byte, _ func() ([]byte, error)) ([]byte, error) {
			// Answer well after the speculative win has been gathered.
			if err := wait(ctx, bWon, 200*time.Millisecond); err != nil {
				return nil, err
			}
			close(lateSent)
			return poison, nil
		}}},
		{Name: "b-sd", Session: &scriptSession{mod: mod, script: func(ctx context.Context, params []byte, run func() ([]byte, error)) ([]byte, error) {
			switch {
			case bytes.Equal(params, frags[0].Params):
				defer close(bWon)
			case bytes.Equal(params, frags[last].Params):
				// Hold the job open until the late duplicate has landed.
				if err := wait(ctx, lateSent, 100*time.Millisecond); err != nil {
					return nil, err
				}
			}
			return run()
		}}},
		{Name: "c-sd", Session: &scriptSession{mod: mod, script: func(context.Context, []byte, func() ([]byte, error)) ([]byte, error) {
			cCalls.Add(1)
			return poison, errors.New("smartfam: transport torn down")
		}}},
	}
	cfg := fleet.FastConfig()
	cfg.MinStragglerAge = 20 * time.Millisecond
	c := fleet.NewCoordinator(nodes, cfg)

	res, err := c.GatherWordCount(context.Background(), frags, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleet.CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
		t.Fatal("a late duplicate or a failed attempt reached the folded counts")
	}
	if res.Stats.DupResults < 1 || res.Fragments[0].Node != "b-sd" {
		t.Fatalf("fragment 0 won on %s with %d duplicates, want b-sd's speculative win and a-sd's late duplicate",
			res.Fragments[0].Node, res.Stats.DupResults)
	}
	if cCalls.Load() == 0 || res.Stats.NodeFailures != 1 || res.Fragments[2].Node != "b-sd" {
		t.Fatalf("c-sd failed %d attempts, %d node failures, fragment 2 won on %s; want c-sd's failure re-placed onto b-sd",
			cCalls.Load(), res.Stats.NodeFailures, res.Fragments[2].Node)
	}
}

func TestFleetWordCountValidation(t *testing.T) {
	c := wcFleet(t, t.TempDir(), 1, nil)
	if _, err := c.WordCount(context.Background(), fleet.WordCountJob{TotalBytes: 10}); err == nil {
		t.Fatal("missing data file accepted")
	}
	if _, err := c.WordCount(context.Background(), fleet.WordCountJob{DataFile: "f"}); err == nil {
		t.Fatal("missing size accepted")
	}
}

// sealedFleet builds an N-node coordinator where each node serves the
// word-count module over its own share, reading sealed replicated objects,
// plus the host-side store over the same shares.
func sealedFleet(t *testing.T, n, r int) (*fleet.Coordinator, *fleet.Store, map[string]smartfam.FS) {
	t.Helper()
	shares := make(map[string]smartfam.FS, n)
	nodes := make([]fleet.Node, n)
	for i := range nodes {
		name := nodeName(i)
		share := smartfam.DirFS(t.TempDir())
		shares[name] = share
		mod := core.WordCountModule(core.ModuleConfig{Store: core.FSStore(share), Workers: 1})
		nodes[i] = fleet.Node{Name: name, Session: &moduleSession{mod: mod}}
	}
	store := fleet.NewStore(shares, r, nil)
	cfg := fleet.FastConfig()
	cfg.MinStragglerAge = time.Hour
	cfg.Store = store
	return fleet.NewCoordinator(nodes, cfg), store, shares
}

func TestFleetWordCountSealedMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	text := workloads.GenerateTextBytes(150_000, 33)
	if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), text, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := singleNodeReference(t, dir, 0)
	want := fleet.CanonicalWordCount(ref)

	for _, n := range []int{2, 3, 4} {
		c, store, _ := sealedFleet(t, n, 2)
		set, err := store.PutFile(context.Background(), "corpus", text, 16<<10)
		if err != nil {
			t.Fatalf("n=%d: PutFile: %v", n, err)
		}
		res, err := c.WordCountSealed(context.Background(), fleet.SealedWordCountJob{Set: set})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := fleet.CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
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
	want := fleet.CanonicalWordCount(ref)

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

	res, err := c.WordCountSealed(context.Background(), fleet.SealedWordCountJob{Set: set})
	if err != nil {
		t.Fatalf("sealed word count with corrupt home replica: %v", err)
	}
	if got := fleet.CanonicalWordCount(&res.Output); !bytes.Equal(got, want) {
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
