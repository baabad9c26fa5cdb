package workloads

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"mcsd/internal/mapreduce"
	"mcsd/internal/partition"
)

// KMeans is the iterative application of the Phoenix suite: each round is
// one MapReduce — Map assigns every point to its nearest centroid and
// emits (cluster, partial sum); Reduce averages into new centroids — and a
// driver loops rounds until the centroids stop moving. It exercises the
// one engine shape nothing else in the paper does: multi-round MapReduce
// with state carried between rounds.

// KMeansPoint is one sample in D dimensions.
type KMeansPoint []float64

// kmSum accumulates a partial cluster: element-wise sums plus a count.
type kmSum struct {
	Sum   []float64
	Count int
}

// GeneratePoints produces n points in dim dimensions drawn from k
// well-separated Gaussian blobs, deterministically for a seed. It returns
// the points and the true blob centres (useful for accuracy checks).
func GeneratePoints(n, dim, k int, seed int64) ([]KMeansPoint, []KMeansPoint) {
	rng := rand.New(rand.NewSource(seed))
	centres := make([]KMeansPoint, k)
	for i := range centres {
		c := make(KMeansPoint, dim)
		for d := range c {
			c[d] = float64(rng.Intn(20 * k)) // spread centres out
		}
		centres[i] = c
	}
	points := make([]KMeansPoint, n)
	for i := range points {
		c := centres[rng.Intn(k)]
		p := make(KMeansPoint, dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()
		}
		points[i] = p
	}
	return points, centres
}

// EncodePoints packs points into the byte-oriented input the engine
// consumes: little-endian float64s, one fixed-size record per point.
func EncodePoints(points []KMeansPoint) ([]byte, int, error) {
	if len(points) == 0 {
		return nil, 0, fmt.Errorf("workloads: no points")
	}
	dim := len(points[0])
	out := make([]byte, 0, len(points)*dim*8)
	for i, p := range points {
		if len(p) != dim {
			return nil, 0, fmt.Errorf("workloads: point %d has dim %d, want %d", i, len(p), dim)
		}
		for _, v := range p {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out, dim, nil
}

// kmeansSpec is one assignment round against fixed centroids.
func kmeansSpec(centroids []KMeansPoint, dim int) mapreduce.Spec[int, kmSum, kmSum] {
	rec := dim * 8
	fold := func(vs []kmSum) kmSum {
		acc := kmSum{Sum: make([]float64, dim)}
		for _, v := range vs {
			for d := range acc.Sum {
				acc.Sum[d] += v.Sum[d]
			}
			acc.Count += v.Count
		}
		return acc
	}
	return mapreduce.Spec[int, kmSum, kmSum]{
		Name: "kmeans-round",
		Split: func(data []byte, chunkSize int) [][]byte {
			chunkSize -= chunkSize % rec
			if chunkSize < rec {
				chunkSize = rec
			}
			usable := len(data) - len(data)%rec
			var chunks [][]byte
			for off := 0; off < usable; off += chunkSize {
				end := off + chunkSize
				if end > usable {
					end = usable
				}
				chunks = append(chunks, data[off:end])
			}
			return chunks
		},
		Map: func(chunk []byte, emit func(int, kmSum)) error {
			if len(chunk)%rec != 0 {
				return fmt.Errorf("workloads: kmeans chunk not whole records")
			}
			// Accumulate per-centroid partials locally; one emit per
			// centroid per chunk.
			locals := make([]kmSum, len(centroids))
			p := make([]float64, dim)
			for off := 0; off < len(chunk); off += rec {
				for d := 0; d < dim; d++ {
					p[d] = math.Float64frombits(
						binary.LittleEndian.Uint64(chunk[off+8*d:]))
				}
				best, bestDist := 0, math.MaxFloat64
				for ci, c := range centroids {
					var dist float64
					for d := 0; d < dim; d++ {
						diff := p[d] - c[d]
						dist += diff * diff
					}
					if dist < bestDist {
						best, bestDist = ci, dist
					}
				}
				if locals[best].Sum == nil {
					locals[best].Sum = make([]float64, dim)
				}
				for d := 0; d < dim; d++ {
					locals[best].Sum[d] += p[d]
				}
				locals[best].Count++
			}
			for ci, l := range locals {
				if l.Count > 0 {
					emit(ci, l)
				}
			}
			return nil
		},
		// Folds in place — see WordCountSpec's combiner.
		Combine:         func(_ int, vs []kmSum) []kmSum { vs[0] = fold(vs); return vs[:1] },
		Reduce:          func(_ int, vs []kmSum) (kmSum, error) { return fold(vs), nil },
		Less:            func(a, b int) bool { return a < b },
		FootprintFactor: 1.1,
	}
}

// KMeansResult reports a clustering run.
type KMeansResult struct {
	Centroids  []KMeansPoint
	Rounds     int
	Converged  bool
	LastShift  float64
	Assignment []int // set only by KMeansSeq
}

// KMeans runs Lloyd's algorithm as iterated MapReduce over the encoded
// points: up to maxRounds rounds, stopping when no centroid moves more
// than tol (Euclidean).
//
//mcsdlint:allow deadexport -- in-memory reference the partitioned k-means, recycle and engine tests compare against
func KMeans(ctx context.Context, cfg mapreduce.Config, encoded []byte, dim, k, maxRounds int, tol float64) (*KMeansResult, error) {
	if dim <= 0 || k <= 0 {
		return nil, fmt.Errorf("workloads: kmeans needs dim > 0 and k > 0")
	}
	rec := dim * 8
	nPoints := len(encoded) / rec
	if nPoints < k {
		return nil, fmt.Errorf("workloads: %d points for k=%d", nPoints, k)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	// Deterministic init: first k points.
	centroids := make([]KMeansPoint, k)
	for i := range centroids {
		c := make(KMeansPoint, dim)
		for d := 0; d < dim; d++ {
			c[d] = math.Float64frombits(
				binary.LittleEndian.Uint64(encoded[i*rec+8*d:]))
		}
		centroids[i] = c
	}

	res := &KMeansResult{}
	for round := 0; round < maxRounds; round++ {
		out, err := mapreduce.Run(ctx, cfg, kmeansSpec(centroids, dim), encoded)
		if err != nil {
			return nil, fmt.Errorf("workloads: kmeans round %d: %w", round+1, err)
		}
		res.Rounds++
		next := make([]KMeansPoint, k)
		copy(next, centroids) // empty clusters keep their centroid
		for _, pr := range out.Pairs {
			if pr.Value.Count == 0 {
				continue
			}
			c := make(KMeansPoint, dim)
			for d := 0; d < dim; d++ {
				c[d] = pr.Value.Sum[d] / float64(pr.Value.Count)
			}
			next[pr.Key] = c
		}
		shift := 0.0
		for i := range next {
			var dist float64
			for d := 0; d < dim; d++ {
				diff := next[i][d] - centroids[i][d]
				dist += diff * diff
			}
			if s := math.Sqrt(dist); s > shift {
				shift = s
			}
		}
		centroids = next
		res.LastShift = shift
		if shift <= tol {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// KMeansPartitioned is the out-of-core composition of the paper's two
// contributions: every k-means round streams the encoded points through
// the partitioned runtime (partition.Run), so the data set never needs to
// be resident — only the fragments its pool holds, which fit the node's
// fragment budget (partition.ResidentBytes). openInput must return a fresh
// reader over the same encoded points for every round (on an SD node, a
// reopened data file).
//
// The per-round merge folds partial cluster sums across fragments, which
// is exact: cluster sums are associative.
func KMeansPartitioned(
	ctx context.Context,
	cfg mapreduce.Config,
	openInput func() (io.ReadCloser, error),
	dim, k, maxRounds int,
	tol float64,
	fragmentBytes int64,
) (*KMeansResult, error) {
	if dim <= 0 || k <= 0 {
		return nil, fmt.Errorf("workloads: kmeans needs dim > 0 and k > 0")
	}
	if tol <= 0 {
		tol = 1e-6
	}
	rec := int64(dim * 8)
	if fragmentBytes > 0 {
		fragmentBytes -= fragmentBytes % rec
		if fragmentBytes < rec {
			fragmentBytes = rec
		}
	}
	// Fragment boundaries must land on whole records: every byte is a
	// legal delimiter, so the scanner cuts exactly at the (record-aligned)
	// fragment size.
	opts := partition.Options{FragmentSize: fragmentBytes, Delimiters: every256()}

	// Initialization: read the first k records.
	head := make([]byte, int(rec)*k)
	r, err := openInput()
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, head); err != nil {
		r.Close()
		return nil, fmt.Errorf("workloads: reading first %d points: %w", k, err)
	}
	r.Close()
	centroids := make([]KMeansPoint, k)
	for i := range centroids {
		c := make(KMeansPoint, dim)
		for d := 0; d < dim; d++ {
			c[d] = math.Float64frombits(
				binary.LittleEndian.Uint64(head[i*int(rec)+8*d:]))
		}
		centroids[i] = c
	}

	merge := func(acc, next kmSum) kmSum {
		out := kmSum{Sum: make([]float64, dim), Count: acc.Count + next.Count}
		for d := range out.Sum {
			out.Sum[d] = acc.Sum[d] + next.Sum[d]
		}
		return out
	}

	res := &KMeansResult{}
	for round := 0; round < maxRounds; round++ {
		in, err := openInput()
		if err != nil {
			return nil, err
		}
		out, err := partition.Run(ctx, cfg, kmeansSpec(centroids, dim), in, opts, merge)
		in.Close()
		if err != nil {
			return nil, fmt.Errorf("workloads: kmeans round %d: %w", round+1, err)
		}
		res.Rounds++
		next := make([]KMeansPoint, k)
		copy(next, centroids)
		for _, pr := range out.Pairs {
			if pr.Value.Count == 0 {
				continue
			}
			c := make(KMeansPoint, dim)
			for d := 0; d < dim; d++ {
				c[d] = pr.Value.Sum[d] / float64(pr.Value.Count)
			}
			next[pr.Key] = c
		}
		shift := 0.0
		for i := range next {
			var dist float64
			for d := 0; d < dim; d++ {
				diff := next[i][d] - centroids[i][d]
				dist += diff * diff
			}
			if s := math.Sqrt(dist); s > shift {
				shift = s
			}
		}
		centroids = next
		res.LastShift = shift
		if shift <= tol {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// every256 returns all byte values: with fixed-size binary records, any
// boundary is legal and the fragment size (a record multiple) decides cuts.
func every256() []byte {
	out := make([]byte, 256)
	for i := range out {
		out[i] = byte(i)
	}
	return out
}

// KMeansSeq is the sequential baseline over decoded points, with the same
// deterministic initialization; it also returns the final assignment.
//
//mcsdlint:allow deadexport -- sequential reference the k-means engine tests compare against
func KMeansSeq(points []KMeansPoint, k, maxRounds int, tol float64) (*KMeansResult, error) {
	if len(points) < k || k <= 0 {
		return nil, fmt.Errorf("workloads: %d points for k=%d", len(points), k)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	dim := len(points[0])
	centroids := make([]KMeansPoint, k)
	for i := range centroids {
		centroids[i] = append(KMeansPoint(nil), points[i]...)
	}
	res := &KMeansResult{Assignment: make([]int, len(points))}
	for round := 0; round < maxRounds; round++ {
		sums := make([]kmSum, k)
		for i := range sums {
			sums[i].Sum = make([]float64, dim)
		}
		for pi, p := range points {
			best, bestDist := 0, math.MaxFloat64
			for ci, c := range centroids {
				var dist float64
				for d := range p {
					diff := p[d] - c[d]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = ci, dist
				}
			}
			res.Assignment[pi] = best
			for d := range p {
				sums[best].Sum[d] += p[d]
			}
			sums[best].Count++
		}
		res.Rounds++
		shift := 0.0
		for i := range centroids {
			if sums[i].Count == 0 {
				continue
			}
			var dist float64
			for d := 0; d < dim; d++ {
				nv := sums[i].Sum[d] / float64(sums[i].Count)
				diff := nv - centroids[i][d]
				dist += diff * diff
				centroids[i][d] = nv
			}
			if s := math.Sqrt(dist); s > shift {
				shift = s
			}
		}
		res.LastShift = shift
		if shift <= tol {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}
