package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"mcsd/internal/workloads"
)

// startStandardSD boots a daemon serving the standard modules over a data
// dir and returns a runtime attached to it plus the data dir.
func startStandardSD(t *testing.T) (*Runtime, string) {
	t.Helper()
	dir := t.TempDir()
	share := fakeSD(t, StandardModules(ModuleConfig{Store: DirStore(dir), Workers: 2})...)
	rt := New(WithPollInterval(time.Millisecond))
	rt.AttachSD("sd0", share)
	return rt, dir
}

func TestTypedWordCount(t *testing.T) {
	rt, dir := startStandardSD(t)
	text := workloads.GenerateTextBytes(20_000, 41)
	writeFile(t, dir, "c.txt", text)
	out, res, err := rt.WordCount(testCtx(t), WordCountParams{DataFile: "c.txt", TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.SD != "sd0" {
		t.Fatal("result metadata missing")
	}
	want := workloads.WordCountSeq(text)
	if out.UniqueWords != len(want) {
		t.Fatalf("UniqueWords = %d, want %d", out.UniqueWords, len(want))
	}
	if len(out.Top) != 2 {
		t.Fatalf("TopN not honoured: %d", len(out.Top))
	}
}

func TestTypedStringMatchAndDBSelect(t *testing.T) {
	rt, dir := startStandardSD(t)
	keys := workloads.GenerateKeys(4, 42)
	enc := workloads.GenerateEncryptBytes(15_000, 43, keys, 0.2)
	writeFile(t, dir, "enc.txt", enc)
	writeFile(t, dir, "keys.txt", []byte(strings.Join(keys, "\n")))
	sm, _, err := rt.StringMatch(testCtx(t), StringMatchParams{
		DataFile: "enc.txt", KeysFile: "keys.txt",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(workloads.StringMatchSeq(enc, keys))); sm.TotalHits != want {
		t.Fatalf("TotalHits = %d, want %d", sm.TotalHits, want)
	}

	sales := workloads.GenerateSalesBytes(10_000, 44)
	writeFile(t, dir, "sales.csv", sales)
	db, _, err := rt.DBSelect(testCtx(t), DBSelectParams{DataFile: "sales.csv", GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := workloads.DBSelectSeq(sales, workloads.DBQuery{GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	if db.Groups != len(want) {
		t.Fatalf("Groups = %d, want %d", db.Groups, len(want))
	}
}

func TestTypedMatMul(t *testing.T) {
	rt, _ := startStandardSD(t)
	mm, _, err := rt.MatMul(testCtx(t), MatMulParams{N: 24, SeedA: 5, SeedB: 6})
	if err != nil {
		t.Fatal(err)
	}
	if mm.N != 24 || mm.FrobSq <= 0 {
		t.Fatalf("matmul output suspicious: %+v", mm)
	}
}

func TestTypedKMeans(t *testing.T) {
	rt, dir := startStandardSD(t)
	pts, truth := workloads.GeneratePoints(1200, 2, 3, 77)
	enc, dim, err := workloads.EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "points.bin", enc)
	out, res, err := rt.KMeans(testCtx(t), KMeansParams{
		DataFile: "points.bin", Dim: dim, K: 3, MaxRounds: 60, PartitionBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd0" {
		t.Fatalf("kmeans served by %q, want sd0", res.SD)
	}
	if !out.Converged || len(out.Centroids) != 3 {
		t.Fatalf("kmeans output suspicious: %+v", out)
	}
	// Recovered centroids must sit near the true blob centres.
	for _, tc := range truth {
		best := 1e18
		for _, c := range out.Centroids {
			var dist float64
			for d := range tc {
				diff := tc[d] - c[d]
				dist += diff * diff
			}
			if dist < best {
				best = dist
			}
		}
		if best > 9 { // 3 units
			t.Fatalf("true centre %v not recovered", tc)
		}
	}
}

func TestKMeansModuleValidation(t *testing.T) {
	store, _ := dataDir(t)
	mod := KMeansModule(ModuleConfig{Store: store})
	if _, err := mod.Run(context.Background(), mustEncode(t, KMeansParams{Dim: 2, K: 3})); err == nil {
		t.Fatal("missing data_file accepted")
	}
	if _, err := mod.Run(context.Background(), mustEncode(t, KMeansParams{DataFile: "x", K: 3})); err == nil {
		t.Fatal("dim=0 accepted")
	}
}

func TestTypedWrapperPropagatesErrors(t *testing.T) {
	rt, _ := startStandardSD(t)
	if _, _, err := rt.WordCount(testCtx(t), WordCountParams{DataFile: "ghost.txt"}); err == nil {
		t.Fatal("missing file accepted")
	}
}
