package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsd/internal/mapreduce"
	"mcsd/internal/memsim"
	"mcsd/internal/partition"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// writeDataFile drops a file into a fresh data dir and returns the store.
func dataDir(t *testing.T) (DataStore, string) {
	t.Helper()
	dir := t.TempDir()
	return DirStore(dir), dir
}

func writeFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDirStoreOpenAndSize(t *testing.T) {
	store, dir := dataDir(t)
	writeFile(t, dir, "f.txt", []byte("hello"))
	size, err := store.Size("f.txt")
	if err != nil || size != 5 {
		t.Fatalf("Size = (%d, %v), want 5", size, err)
	}
	f, err := store.Open("f.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 5)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
}

func TestDirStoreRejectsEscapes(t *testing.T) {
	store, _ := dataDir(t)
	for _, bad := range []string{"", "/abs", "../up", "a/../b", `a\b`} {
		if _, err := store.Open(bad); err == nil {
			t.Errorf("Open(%q) accepted", bad)
		}
		if _, err := store.Size(bad); err == nil {
			t.Errorf("Size(%q) accepted", bad)
		}
	}
}

func TestWordCountModule(t *testing.T) {
	store, dir := dataDir(t)
	text := workloads.GenerateTextBytes(60_000, 7)
	writeFile(t, dir, "corpus.txt", text)

	mod := WordCountModule(ModuleConfig{Store: store, Workers: 2})
	raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{
		DataFile: "corpus.txt", PartitionBytes: 8 << 10, TopN: 5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var out WordCountOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	want := workloads.WordCountSeq(text)
	var wantTotal int64
	for _, c := range want {
		wantTotal += int64(c)
	}
	if out.TotalWords != wantTotal {
		t.Fatalf("TotalWords = %d, want %d", out.TotalWords, wantTotal)
	}
	if out.UniqueWords != len(want) {
		t.Fatalf("UniqueWords = %d, want %d", out.UniqueWords, len(want))
	}
	if len(out.Top) != 5 {
		t.Fatalf("Top has %d entries, want 5", len(out.Top))
	}
	wantTop := workloads.TopWords(want, 1)[0]
	if out.Top[0].Word != wantTop.Key || out.Top[0].Count != wantTop.Value {
		t.Fatalf("Top[0] = %+v, want %v:%d", out.Top[0], wantTop.Key, wantTop.Value)
	}
	if out.Fragments < 2 {
		t.Fatalf("Fragments = %d, want partitioned run", out.Fragments)
	}
}

func TestWordCountModuleNativeMode(t *testing.T) {
	store, dir := dataDir(t)
	writeFile(t, dir, "small.txt", []byte("a b a"))
	mod := WordCountModule(ModuleConfig{Store: store, Workers: 1})
	raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{DataFile: "small.txt"}))
	if err != nil {
		t.Fatal(err)
	}
	var out WordCountOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fragments != 1 || out.TotalWords != 3 || out.UniqueWords != 2 {
		t.Fatalf("native run = %+v", out)
	}
}

// TestWordCountOneBoundaryRule pins word count's one word-boundary rule:
// only ASCII whitespace separates words, so U+0085 and U+00A0 sit inside
// them. The engine, the sequential baseline, WordCountSeq and the module
// at native and 64 KiB partitions must all count the same words.
func TestWordCountOneBoundaryRule(t *testing.T) {
	const line = "alpha beta gamma\u0085delta epsilon\u00a0zeta\n"
	const lines = 4000 // ~170 KB: several 64 KiB fragments
	text := []byte(strings.Repeat(line, lines))
	want := workloads.WordCountSeq(text)
	if want["gamma\u0085delta"] != lines || want["epsilon\u00a0zeta"] != lines || len(want) != 4 {
		t.Fatalf("WordCountSeq = %v, want 4 words, each %d times", want, lines)
	}
	check := func(path string, got map[string]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct words %v, want %d", path, len(got), got, len(want))
		}
		for w, n := range want {
			if got[w] != n {
				t.Fatalf("%s: count[%q] = %d, want %d", path, w, got[w], n)
			}
		}
	}
	ctx := context.Background()
	par, err := mapreduce.Run(ctx, mapreduce.Config{Workers: 2}, workloads.WordCountSpec(), text)
	if err != nil {
		t.Fatal(err)
	}
	check("Run", par.Map())
	seq, err := mapreduce.RunSequential(ctx, mapreduce.Config{}, workloads.WordCountSpec(), text)
	if err != nil {
		t.Fatal(err)
	}
	check("RunSequential", seq.Map())

	store, dir := dataDir(t)
	writeFile(t, dir, "corpus.txt", text)
	mod := WordCountModule(ModuleConfig{Store: store, Workers: 2})
	for _, part := range []int64{0, 64 << 10} {
		raw, err := mod.Run(ctx, mustEncode(t, WordCountParams{
			DataFile: "corpus.txt", PartitionBytes: part, EmitPairs: true,
		}))
		if err != nil {
			t.Fatal(err)
		}
		var out WordCountOutput
		if err := Decode(raw, &out); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int, len(out.Pairs))
		for _, p := range out.Pairs {
			got[p.Word] = p.Count
		}
		check(fmt.Sprintf("module, partition %d", part), got)
	}
}

func TestWordCountModuleErrors(t *testing.T) {
	store, _ := dataDir(t)
	mod := WordCountModule(ModuleConfig{Store: store})
	if _, err := mod.Run(context.Background(), []byte("{}")); err == nil {
		t.Fatal("missing data_file accepted")
	}
	if _, err := mod.Run(context.Background(),
		mustEncode(t, WordCountParams{DataFile: "ghost.txt"})); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := mod.Run(context.Background(), []byte("not json")); err == nil {
		t.Fatal("garbage params accepted")
	}
}

func TestWordCountModuleMemoryWall(t *testing.T) {
	store, dir := dataDir(t)
	text := workloads.GenerateTextBytes(30_000, 3)
	writeFile(t, dir, "big.txt", text)
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 32 << 10, UsableFraction: 1.0})
	mod := WordCountModule(ModuleConfig{Store: store, Workers: 1, Memory: acct})

	// Native: 3x30000 = 90000 > 32768 -> OOM.
	_, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{DataFile: "big.txt"}))
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("native err = %v, want ErrOutOfMemory", err)
	}
	// Partitioned at 8 KiB fragments: fits.
	raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{
		DataFile: "big.txt", PartitionBytes: 8 << 10,
	}))
	if err != nil {
		t.Fatalf("partitioned run failed: %v", err)
	}
	var out WordCountOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	want := workloads.WordCountSeq(text)
	if out.UniqueWords != len(want) {
		t.Fatalf("partitioned UniqueWords = %d, want %d", out.UniqueWords, len(want))
	}
}

func TestWordCountModuleAutoPartition(t *testing.T) {
	store, dir := dataDir(t)
	text := workloads.GenerateTextBytes(64_000, 19)
	writeFile(t, dir, "corpus.txt", text)
	// A 32 KiB node: auto sizing must pick fragments that keep the 3x WC
	// footprint within half of usable RAM, so a 64 KB input becomes
	// several fragments and the run succeeds where native would OOM.
	acct := memsim.NewAccountant(memsim.Config{
		CapacityBytes: 32 << 10, UsableFraction: 1.0, SwapBytes: 0})
	mod := WordCountModule(ModuleConfig{Store: store, Workers: 1, Memory: acct})

	raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{
		DataFile: "corpus.txt", PartitionBytes: AutoPartition,
	}))
	if err != nil {
		t.Fatalf("auto-partitioned run failed: %v", err)
	}
	var out WordCountOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fragments < 2 {
		t.Fatalf("auto partitioning produced %d fragments, want several on a tiny node", out.Fragments)
	}
	want := workloads.WordCountSeq(text)
	if out.UniqueWords != len(want) {
		t.Fatalf("UniqueWords = %d, want %d", out.UniqueWords, len(want))
	}
}

func TestModuleConfigPartitionBytesResolution(t *testing.T) {
	cfg := ModuleConfig{}
	if got := cfg.partitionBytes(600<<20, 3); got != 600<<20 {
		t.Fatalf("explicit size changed: %d", got)
	}
	if got := cfg.partitionBytes(0, 3); got != 0 {
		t.Fatalf("native mode changed: %d", got)
	}
	auto := cfg.partitionBytes(AutoPartition, 3)
	if auto <= 0 {
		t.Fatalf("auto size = %d", auto)
	}
	// With a Table I node (2 GB) the auto fragment's 3x footprint must
	// fit in half of usable RAM.
	mem := memsim.DefaultConfig()
	if float64(auto)*3 > float64(mem.Usable())/2+1 {
		t.Fatalf("auto fragment %d too large for default node", auto)
	}
}

// TestWordCountModuleDriversAgree checks the module's output against a
// direct partition.Run over one corpus: same counts, same fragment
// accounting.
func TestWordCountModuleDriversAgree(t *testing.T) {
	store, dir := dataDir(t)
	text := workloads.GenerateTextBytes(50_000, 13)
	writeFile(t, dir, "corpus.txt", text)
	mod := WordCountModule(ModuleConfig{Store: store, Workers: 2})
	raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{
		DataFile: "corpus.txt", PartitionBytes: 8 << 10,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var par WordCountOutput
	if err := Decode(raw, &par); err != nil {
		t.Fatal(err)
	}
	ref, err := partition.Run(context.Background(), mapreduce.Config{Workers: 2}, workloads.WordCountSpec(),
		bytes.NewReader(text), partition.Options{FragmentSize: 8 << 10}, workloads.WordCountMerge)
	if err != nil {
		t.Fatal(err)
	}
	var refTotal int64
	for _, p := range ref.Pairs {
		refTotal += int64(p.Value)
	}
	if par.TotalWords != refTotal || par.UniqueWords != len(ref.Pairs) || par.Fragments != ref.Fragments {
		t.Fatalf("module output %+v differs from partition.Run: %d words, %d unique, %d fragments",
			par, refTotal, len(ref.Pairs), ref.Fragments)
	}
	// The module must report the per-fragment key sum.
	if par.FragmentKeys < par.UniqueWords || ref.Stats.FragmentKeys != par.FragmentKeys {
		t.Fatalf("FragmentKeys: partition.Run %d, module %d, unique %d",
			ref.Stats.FragmentKeys, par.FragmentKeys, par.UniqueWords)
	}
}

func TestStringMatchModule(t *testing.T) {
	store, dir := dataDir(t)
	keys := workloads.GenerateKeys(6, 11)
	enc := workloads.GenerateEncryptBytes(50_000, 12, keys, 0.2)
	writeFile(t, dir, "encrypt.txt", enc)
	writeFile(t, dir, "keys.txt", []byte(strings.Join(keys, "\n")+"\n"))

	mod := StringMatchModule(ModuleConfig{Store: store, Workers: 2})
	raw, err := mod.Run(context.Background(), mustEncode(t, StringMatchParams{
		DataFile: "encrypt.txt", KeysFile: "keys.txt", PartitionBytes: 4096, SampleLines: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var out StringMatchOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	seq := workloads.StringMatchSeq(enc, keys)
	if out.TotalHits != int64(len(seq)) {
		t.Fatalf("TotalHits = %d, want %d", out.TotalHits, len(seq))
	}
	wantPerKey := make(map[string]int)
	for _, m := range seq {
		wantPerKey[m.Key]++
	}
	for k, n := range wantPerKey {
		if out.HitsPerKey[k] != n {
			t.Fatalf("HitsPerKey[%q] = %d, want %d", k, out.HitsPerKey[k], n)
		}
	}
	if len(out.Sample) > 3 {
		t.Fatalf("sample has %d lines, want <= 3", len(out.Sample))
	}
	for _, line := range out.Sample {
		found := false
		for _, k := range keys {
			if strings.Contains(line, k) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sample line %q contains no key", line)
		}
	}
}

func TestStringMatchModuleErrors(t *testing.T) {
	store, dir := dataDir(t)
	writeFile(t, dir, "empty.keys", nil)
	writeFile(t, dir, "data.txt", []byte("x\n"))
	mod := StringMatchModule(ModuleConfig{Store: store})
	if _, err := mod.Run(context.Background(), mustEncode(t, StringMatchParams{DataFile: "data.txt"})); err == nil {
		t.Fatal("missing keys_file accepted")
	}
	if _, err := mod.Run(context.Background(), mustEncode(t, StringMatchParams{
		DataFile: "data.txt", KeysFile: "empty.keys",
	})); err == nil {
		t.Fatal("empty keys file accepted")
	}
}

func TestDBSelectModule(t *testing.T) {
	store, dir := dataDir(t)
	data := workloads.GenerateSalesBytes(30_000, 8)
	writeFile(t, dir, "sales.csv", data)
	mod := DBSelectModule(ModuleConfig{Store: store, Workers: 2})
	raw, err := mod.Run(context.Background(), mustEncode(t, DBSelectParams{
		DataFile: "sales.csv", GroupBy: "region", MinPrice: 100, PartitionBytes: 4096,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var out DBSelectOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	want, err := workloads.DBSelectSeq(data, workloads.DBQuery{GroupBy: "region", MinPrice: 100})
	if err != nil {
		t.Fatal(err)
	}
	if out.Groups != len(want) {
		t.Fatalf("Groups = %d, want %d", out.Groups, len(want))
	}
	for g, v := range want {
		diff := out.Revenue[g] - v
		if diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("Revenue[%s] = %v, want %v", g, out.Revenue[g], v)
		}
	}
	if out.Fragments < 2 {
		t.Fatalf("Fragments = %d, want partitioned run", out.Fragments)
	}
}

func TestDBSelectModuleErrors(t *testing.T) {
	store, dir := dataDir(t)
	writeFile(t, dir, "sales.csv", []byte("north,disk,3,5.00\n"))
	mod := DBSelectModule(ModuleConfig{Store: store})
	if _, err := mod.Run(context.Background(), mustEncode(t, DBSelectParams{GroupBy: "region"})); err == nil {
		t.Fatal("missing data_file accepted")
	}
	if _, err := mod.Run(context.Background(), mustEncode(t, DBSelectParams{
		DataFile: "sales.csv", GroupBy: "color",
	})); err == nil {
		t.Fatal("bad group_by accepted")
	}
}

func TestMatMulModule(t *testing.T) {
	store, _ := dataDir(t)
	mod := MatMulModule(ModuleConfig{Store: store, Workers: 2})
	raw, err := mod.Run(context.Background(), mustEncode(t, MatMulParams{N: 16, SeedA: 1, SeedB: 2}))
	if err != nil {
		t.Fatal(err)
	}
	var out MatMulOutput
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	// Cross-check against the sequential baseline.
	a := workloads.RandomMatrix(16, 16, 1)
	b := workloads.RandomMatrix(16, 16, 2)
	c, err := workloads.MatMulSeq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var trace, frob float64
	for i := 0; i < 16; i++ {
		trace += c.At(i, i)
	}
	for _, v := range c.Data {
		frob += v * v
	}
	if diff := out.Trace - trace; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Trace = %v, want %v", out.Trace, trace)
	}
	if diff := out.FrobSq - frob; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("FrobSq = %v, want %v", out.FrobSq, frob)
	}
}

func TestMatMulModuleRejectsBadN(t *testing.T) {
	store, _ := dataDir(t)
	mod := MatMulModule(ModuleConfig{Store: store})
	if _, err := mod.Run(context.Background(), mustEncode(t, MatMulParams{N: 0})); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestStandardModulesNames(t *testing.T) {
	store, _ := dataDir(t)
	mods := StandardModules(ModuleConfig{Store: store})
	if len(mods) != 5 {
		t.Fatalf("%d standard modules, want 5", len(mods))
	}
	names := map[string]bool{}
	for _, m := range mods {
		names[m.Name()] = true
	}
	for _, want := range []string{ModuleWordCount, ModuleStringMatch, ModuleMatMul, ModuleDBSelect, ModuleKMeans} {
		if !names[want] {
			t.Fatalf("missing standard module %q", want)
		}
	}
	// They register cleanly.
	reg := smartfam.NewRegistry(smartfam.DirFS(t.TempDir()))
	for _, m := range mods {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
}

func mustEncode(t testing.TB, v any) []byte {
	t.Helper()
	b, err := encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeError(t *testing.T) {
	var out WordCountOutput
	if err := Decode([]byte("{"), &out); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestModuleConfigWorkers(t *testing.T) {
	cfg := ModuleConfig{Workers: 3}
	if cfg.workers(0) != 3 {
		t.Fatal("node default not used")
	}
	if cfg.workers(5) != 5 {
		t.Fatal("override not used")
	}
	if (ModuleConfig{}).workers(0) < 1 {
		t.Fatal("GOMAXPROCS fallback broken")
	}
}

func TestModuleFnErrorPropagatesAsString(t *testing.T) {
	// Regression guard: module errors travel through smartFAM as text.
	store, _ := dataDir(t)
	mod := WordCountModule(ModuleConfig{Store: store})
	_, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{DataFile: "nope"}))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err %v should name the missing file", err)
	}
	_ = fmt.Sprintf("%v", err)
}

// TestWordCountModuleRangeScatter runs the module once per byte range and
// checks the per-range word-aligned runs sum to exactly the whole-file
// result — the invariant the fleet coordinator relies on to scatter one
// file across SD nodes.
func TestWordCountModuleRangeScatter(t *testing.T) {
	store, dir := dataDir(t)
	text := workloads.GenerateTextBytes(50_000, 13)
	writeFile(t, dir, "corpus.txt", text)

	mod := WordCountModule(ModuleConfig{Store: store, Workers: 1})
	sum := map[string]int{}
	var totalWords int64
	const rangeBytes = 12_000
	for off := int64(0); off < int64(len(text)); off += rangeBytes {
		n := int64(len(text)) - off
		if n > rangeBytes {
			n = rangeBytes
		}
		raw, err := mod.Run(context.Background(), mustEncode(t, WordCountParams{
			DataFile: "corpus.txt", PartitionBytes: 4 << 10,
			Ranges: [][2]int64{{off, off + n}}, EmitPairs: true,
		}))
		if err != nil {
			t.Fatalf("range at %d: %v", off, err)
		}
		var out WordCountOutput
		if err := Decode(raw, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Pairs) != out.UniqueWords {
			t.Fatalf("range at %d: %d pairs, UniqueWords %d", off, len(out.Pairs), out.UniqueWords)
		}
		for i := 1; i < len(out.Pairs); i++ {
			if out.Pairs[i-1].Word >= out.Pairs[i].Word {
				t.Fatalf("range at %d: pairs not strictly key-sorted at %d", off, i)
			}
		}
		for _, pr := range out.Pairs {
			sum[pr.Word] += pr.Count
		}
		totalWords += out.TotalWords
	}
	want := workloads.WordCountSeq(text)
	if len(sum) != len(want) {
		t.Fatalf("scattered runs cover %d words, want %d", len(sum), len(want))
	}
	var wantTotal int64
	for w, c := range want {
		wantTotal += int64(c)
		if sum[w] != c {
			t.Fatalf("word %q: scattered sum %d, want %d", w, sum[w], c)
		}
	}
	if totalWords != wantTotal {
		t.Fatalf("TotalWords sum = %d, want %d", totalWords, wantTotal)
	}
}

// TestOpenAtFallback exercises the prefix-discard path for stores without
// native range support.
func TestOpenAtFallback(t *testing.T) {
	store, dir := dataDir(t)
	writeFile(t, dir, "f.txt", []byte("0123456789"))
	// dirStore has native OpenAt; wrap it to hide the extension.
	plain := plainStore{store}
	for _, s := range []DataStore{store, plain} {
		f, err := OpenAt(s, "f.txt", 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f)
		f.Close()
		if err != nil || string(got) != "456789" {
			t.Fatalf("OpenAt(%T) = %q, %v", s, got, err)
		}
	}
	if _, err := OpenAt(store, "f.txt", -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

type plainStore struct{ s DataStore }

func (p plainStore) Open(name string) (io.ReadCloser, error) { return p.s.Open(name) }
func (p plainStore) Size(name string) (int64, error)         { return p.s.Size(name) }
