package workloads

import (
	"bytes"
	"context"
	"io"
	"math"
	"testing"
	"testing/quick"

	"mcsd/internal/mapreduce"
	"mcsd/internal/memsim"
	"mcsd/internal/partition"
)

// --- Histogram --------------------------------------------------------------

func TestGenerateBitmapShapeAndDeterminism(t *testing.T) {
	bm := GenerateBitmap(1000, 3)
	if len(bm) != 999 {
		t.Fatalf("bitmap has %d bytes, want 999 (whole pixels)", len(bm))
	}
	if string(bm) != string(GenerateBitmap(1000, 3)) {
		t.Fatal("same seed produced different bitmaps")
	}
	// Channel B is narrow: no value >= 64.
	for i := 2; i < len(bm); i += 3 {
		if bm[i] >= 64 {
			t.Fatalf("B channel value %d out of generator range", bm[i])
		}
	}
}

func TestHistogramSpecMatchesSeq(t *testing.T) {
	bm := GenerateBitmap(60_000, 7)
	res, err := mapreduce.Run(context.Background(),
		mapreduce.Config{Workers: 3, ChunkSize: 1000}, HistogramSpec(), bm)
	if err != nil {
		t.Fatal(err)
	}
	want := HistogramSeq(bm)
	got := res.Map()
	if len(got) != len(want) {
		t.Fatalf("%d buckets, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("bucket %+v = %d, want %d", k, got[k], v)
		}
	}
	// Sorted output: channel-major, value-minor.
	for i := 1; i < len(res.Pairs); i++ {
		a, b := res.Pairs[i-1].Key, res.Pairs[i].Key
		if a.Channel > b.Channel || (a.Channel == b.Channel && a.Value >= b.Value) {
			t.Fatal("histogram output not sorted")
		}
	}
	// Total count = pixels per channel.
	perChannel := make(map[HistChannel]int)
	for _, p := range res.Pairs {
		perChannel[p.Key.Channel] += p.Value
	}
	pixels := len(bm) / 3
	for ch, n := range perChannel {
		if n != pixels {
			t.Fatalf("channel %d counted %d pixels, want %d", ch, n, pixels)
		}
	}
}

func TestHistogramSpecRejectsTornPixels(t *testing.T) {
	spec := HistogramSpec()
	err := spec.Map([]byte{1, 2, 3, 4}, func(HistKey, int) {})
	if err == nil {
		t.Fatal("torn pixel chunk accepted")
	}
}

func TestPixelSplitterAlignment(t *testing.T) {
	data := GenerateBitmap(100, 1) // 99 bytes
	chunks := pixelSplitter(data, 10)
	total := 0
	for i, c := range chunks {
		if len(c)%3 != 0 {
			t.Fatalf("chunk %d has %d bytes (torn pixel)", i, len(c))
		}
		total += len(c)
	}
	if total != 99 {
		t.Fatalf("chunks cover %d bytes, want 99", total)
	}
}

// Property: histogram via partitioned fragments equals the sequential scan
// for any fragment size.
func TestHistogramPartitionedProperty(t *testing.T) {
	bm := GenerateBitmap(6000, 11)
	prop := func(frag uint16) bool {
		// Fragment boundaries must also land on pixels: use multiples of 3.
		size := int64(frag)%900 + 3
		size -= size % 3
		if size < 3 {
			size = 3
		}
		res, err := partition.Run(context.Background(), mapreduce.Config{Workers: 2},
			HistogramSpec(), bytes.NewReader(bm), partition.Options{
				FragmentSize: size,
				// Every byte value appears in pixel data, so delimiter
				// seeking cannot work — fragment at exact multiples of 3
				// via MaxScan=0 and delimiters that always match.
				Delimiters: allBytes(),
			}, partition.SumMerge[int])
		if err != nil {
			return false
		}
		want := HistogramSeq(bm)
		got := res.Map()
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func allBytes() []byte {
	out := make([]byte, 256)
	for i := range out {
		out[i] = byte(i)
	}
	return out
}

// --- KMeans ------------------------------------------------------------------

func TestGeneratePointsShape(t *testing.T) {
	pts, centres := GeneratePoints(500, 3, 4, 9)
	if len(pts) != 500 || len(centres) != 4 {
		t.Fatalf("got %d points, %d centres", len(pts), len(centres))
	}
	for _, p := range pts {
		if len(p) != 3 {
			t.Fatal("wrong dimensionality")
		}
	}
}

func TestEncodePointsRoundSize(t *testing.T) {
	pts, _ := GeneratePoints(10, 2, 2, 1)
	enc, dim, err := EncodePoints(pts)
	if err != nil || dim != 2 {
		t.Fatalf("EncodePoints: (%d, %v)", dim, err)
	}
	if len(enc) != 10*2*8 {
		t.Fatalf("encoded %d bytes, want 160", len(enc))
	}
	if _, _, err := EncodePoints(nil); err == nil {
		t.Fatal("empty points accepted")
	}
	ragged := []KMeansPoint{{1, 2}, {3}}
	if _, _, err := EncodePoints(ragged); err == nil {
		t.Fatal("ragged points accepted")
	}
}

func TestKMeansMatchesSequential(t *testing.T) {
	pts, _ := GeneratePoints(600, 2, 3, 21)
	enc, dim, err := EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := KMeans(context.Background(), mapreduce.Config{Workers: 3, ChunkSize: 256},
		enc, dim, 3, 50, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := KMeansSeq(pts, 3, 50, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Rounds != seq.Rounds || mr.Converged != seq.Converged {
		t.Fatalf("rounds/convergence differ: MR (%d, %v) vs seq (%d, %v)",
			mr.Rounds, mr.Converged, seq.Rounds, seq.Converged)
	}
	for i := range mr.Centroids {
		for d := range mr.Centroids[i] {
			if math.Abs(mr.Centroids[i][d]-seq.Centroids[i][d]) > 1e-6 {
				t.Fatalf("centroid %d dim %d: %v vs %v",
					i, d, mr.Centroids[i][d], seq.Centroids[i][d])
			}
		}
	}
	if !mr.Converged {
		t.Fatal("well-separated blobs did not converge in 50 rounds")
	}
}

func TestKMeansRecoversBlobCentres(t *testing.T) {
	pts, truth := GeneratePoints(2000, 2, 3, 5)
	enc, dim, err := EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMeans(context.Background(), mapreduce.Config{Workers: 2}, enc, dim, 3, 100, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Every true centre must have a recovered centroid within a few units
	// (blob sigma is 1).
	for _, tc := range truth {
		best := math.MaxFloat64
		for _, c := range res.Centroids {
			var dist float64
			for d := range tc {
				diff := tc[d] - c[d]
				dist += diff * diff
			}
			if dist < best {
				best = dist
			}
		}
		if math.Sqrt(best) > 3 {
			t.Fatalf("true centre %v not recovered (nearest centroid %.2f away)",
				tc, math.Sqrt(best))
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(context.Background(), mapreduce.Config{}, nil, 0, 3, 10, 0); err == nil {
		t.Fatal("dim=0 accepted")
	}
	pts, _ := GeneratePoints(2, 2, 2, 1)
	enc, dim, _ := EncodePoints(pts)
	if _, err := KMeans(context.Background(), mapreduce.Config{}, enc, dim, 5, 10, 0); err == nil {
		t.Fatal("k > points accepted")
	}
	if _, err := KMeansSeq(pts, 5, 10, 0); err == nil {
		t.Fatal("seq: k > points accepted")
	}
}

func TestKMeansPartitionedMatchesInMemory(t *testing.T) {
	pts, _ := GeneratePoints(800, 3, 4, 55)
	enc, dim, err := EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := KMeans(context.Background(), mapreduce.Config{Workers: 2}, enc, dim, 4, 40, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(enc)), nil
	}
	part, err := KMeansPartitioned(context.Background(), mapreduce.Config{Workers: 2},
		open, dim, 4, 40, 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if part.Rounds != inMem.Rounds || part.Converged != inMem.Converged {
		t.Fatalf("rounds/convergence differ: partitioned (%d, %v) vs in-memory (%d, %v)",
			part.Rounds, part.Converged, inMem.Rounds, inMem.Converged)
	}
	for i := range part.Centroids {
		for d := range part.Centroids[i] {
			if math.Abs(part.Centroids[i][d]-inMem.Centroids[i][d]) > 1e-6 {
				t.Fatalf("centroid %d dim %d: %v vs %v",
					i, d, part.Centroids[i][d], inMem.Centroids[i][d])
			}
		}
	}
}

func TestKMeansPartitionedUnderMemoryBudget(t *testing.T) {
	// The point of the composition: a memory budget the whole data set
	// does not fit in. Fragments of ~2 KB against a 8 KB accountant.
	pts, _ := GeneratePoints(2000, 2, 3, 66) // 32 KB encoded
	enc, dim, err := EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	acct := memsim.NewAccountant(memsim.Config{CapacityBytes: 8 << 10, UsableFraction: 1.0})
	cfg := mapreduce.Config{Workers: 2, Memory: acct}
	// Native in-memory run cannot be admitted.
	if _, err := KMeans(context.Background(), cfg, enc, dim, 3, 5, 1e-6); err == nil {
		t.Fatal("32 KB in-memory run fit an 8 KB budget")
	}
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(enc)), nil
	}
	res, err := KMeansPartitioned(context.Background(), cfg, open, dim, 3, 30, 1e-6, 2<<10)
	if err != nil {
		t.Fatalf("partitioned k-means failed under budget: %v", err)
	}
	if !res.Converged {
		t.Fatal("partitioned k-means did not converge")
	}
	if acct.Peak() > 8<<10 {
		t.Fatalf("peak footprint %d exceeded the budget", acct.Peak())
	}
}

func TestKMeansPartitionedValidation(t *testing.T) {
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(nil)), nil
	}
	if _, err := KMeansPartitioned(context.Background(), mapreduce.Config{},
		open, 0, 3, 5, 0, 100); err == nil {
		t.Fatal("dim=0 accepted")
	}
	if _, err := KMeansPartitioned(context.Background(), mapreduce.Config{},
		open, 2, 3, 5, 0, 100); err == nil {
		t.Fatal("empty input accepted (cannot read k initial points)")
	}
}

func TestKMeansMaxRoundsHonoured(t *testing.T) {
	pts, _ := GeneratePoints(400, 2, 4, 33)
	enc, dim, _ := EncodePoints(pts)
	res, err := KMeans(context.Background(), mapreduce.Config{Workers: 2}, enc, dim, 4, 1, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("ran %d rounds, want exactly 1", res.Rounds)
	}
}
