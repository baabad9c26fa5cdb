package partition_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"mcsd/internal/mapreduce"
	"mcsd/internal/partition"
	"mcsd/internal/workloads"
)

// poisonByte fills recycled fragment buffers. It is no delimiter of any
// workload, so a poisoned byte read as input corrupts a word, a line, a CSV
// row or a point instead of vanishing into a separator.
const poisonByte = 0xA5

// TestRunRecycledFragmentsPoisoned scribbles poisonByte over every fragment
// buffer the moment Run recycles it, then runs word count, string match,
// dbselect and k-means through Run at small fragment sizes with 1–4
// workers, three times each, so later runs read into buffers earlier runs
// poisoned. Results must equal the sequential references: an engine that
// still read a fragment after Run recycled it, or a scanner that handed out
// a buffer's stale bytes, fails here rather than corrupting results in
// production.
func TestRunRecycledFragmentsPoisoned(t *testing.T) {
	var poisoned atomic.Int64
	restore := partition.SetRecyclePoison(func(buf []byte) {
		for i := range buf {
			buf[i] = poisonByte
		}
		poisoned.Add(1)
	})
	defer restore()

	ctx := context.Background()
	text := workloads.GenerateTextBytes(32<<10, 7)
	wantWC := workloads.WordCountSeq(text)
	keys := workloads.GenerateKeys(8, 7)
	lines := workloads.GenerateEncryptBytes(32<<10, 7, keys, 0.05)
	wantSM := make(map[string][]string)
	for _, m := range workloads.StringMatchSeq(lines, keys) {
		wantSM[m.Key] = append(wantSM[m.Key], m.Line)
	}
	sales := workloads.GenerateSalesBytes(24<<10, 7)
	q := workloads.DBQuery{GroupBy: "product"}
	wantDB, err := workloads.DBSelectSeq(sales, q)
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := workloads.GeneratePoints(300, 3, 4, 7)
	points, dim, err := workloads.EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	wantKM, err := workloads.KMeans(ctx, mapreduce.Config{Workers: 2}, points, dim, 4, 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	openPoints := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(points)), nil }

	for _, frag := range []int64{2 << 10, 5 << 10} {
		for workers := 1; workers <= 4; workers++ {
			cfg := mapreduce.Config{Workers: workers}
			for rep := 0; rep < 3; rep++ {
				name := fmt.Sprintf("frag=%d/workers=%d/rep=%d", frag, workers, rep)

				wc, err := partition.Run(ctx, cfg, workloads.WordCountSpec(), bytes.NewReader(text),
					partition.Options{FragmentSize: frag}, workloads.WordCountMerge)
				if err != nil {
					t.Fatalf("%s: word count: %v", name, err)
				}
				if got := wc.Map(); !reflect.DeepEqual(got, wantWC) {
					t.Fatalf("%s: word count: %d words differ from WordCountSeq's %d", name, len(got), len(wantWC))
				}

				sm, err := partition.Run(ctx, cfg, workloads.StringMatchSpec(keys), bytes.NewReader(lines),
					partition.Options{FragmentSize: frag, Delimiters: []byte{'\n'}}, workloads.StringMatchMerge)
				if err != nil {
					t.Fatalf("%s: string match: %v", name, err)
				}
				if got := sm.Map(); !reflect.DeepEqual(got, wantSM) {
					t.Fatalf("%s: string match: per-key lines differ from StringMatchSeq", name)
				}

				db, err := partition.Run(ctx, cfg, workloads.DBSelectSpec(q), bytes.NewReader(sales),
					partition.Options{FragmentSize: frag, Delimiters: []byte{'\n'}}, workloads.DBSelectMerge)
				if err != nil {
					t.Fatalf("%s: dbselect: %v", name, err)
				}
				got := db.Map()
				if len(got) != len(wantDB) {
					t.Fatalf("%s: dbselect: %d groups, want %d", name, len(got), len(wantDB))
				}
				for g, v := range wantDB {
					if math.Abs(got[g]-v) > 1e-6 {
						t.Fatalf("%s: dbselect: revenue[%s] = %v, want %v", name, g, got[g], v)
					}
				}

				km, err := workloads.KMeansPartitioned(ctx, cfg, openPoints, dim, 4, 4, 1e-9, frag)
				if err != nil {
					t.Fatalf("%s: k-means: %v", name, err)
				}
				if km.Rounds != wantKM.Rounds {
					t.Fatalf("%s: k-means: %d rounds, in-memory %d", name, km.Rounds, wantKM.Rounds)
				}
				for i := range km.Centroids {
					for d := range km.Centroids[i] {
						if math.Abs(km.Centroids[i][d]-wantKM.Centroids[i][d]) > 1e-6 {
							t.Fatalf("%s: k-means: centroid %d dim %d = %v, in-memory %v",
								name, i, d, km.Centroids[i][d], wantKM.Centroids[i][d])
						}
					}
				}
			}
		}
	}
	if poisoned.Load() == 0 {
		t.Fatal("poison hook never fired: fragments are not being recycled, test is vacuous")
	}
}
