package workloads

import (
	"fmt"
	"math/rand"

	"mcsd/internal/mapreduce"
)

// Histogram is another application from the Phoenix benchmark suite the
// paper builds on (Ranger et al., HPCA'07): count the frequency of every
// pixel value per colour channel of a bitmap. It is the archetypal
// fixed-key-space MapReduce — 768 keys regardless of input size — which
// stresses a different engine profile than word count's unbounded keys.

// HistChannel identifies a colour channel.
type HistChannel uint8

// Channels of an RGB bitmap.
const (
	ChannelR HistChannel = 0
	ChannelG HistChannel = 1
	ChannelB HistChannel = 2
)

// HistKey is one histogram bucket: a channel and a value.
type HistKey struct {
	Channel HistChannel
	Value   uint8
}

// GenerateBitmap produces size bytes of RGB pixel data (size is rounded
// down to a multiple of 3), deterministically for a seed. Channel
// distributions differ so tests can tell them apart.
//
//mcsdlint:allow deadexport -- Phoenix histogram input: the engine benchmarks (bench_test) and one-task tests run every workload on it
func GenerateBitmap(size int64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	n := int(size / 3 * 3)
	out := make([]byte, n)
	for i := 0; i+2 < n; i += 3 {
		out[i] = uint8(rng.Intn(256))                   // R uniform
		out[i+1] = uint8(rng.Intn(128) + rng.Intn(129)) // G triangular
		out[i+2] = uint8(rng.Intn(64))                  // B narrow
	}
	return out
}

// HistogramSpec counts pixel values per channel. Chunks are aligned to
// whole pixels by the splitter.
//
//mcsdlint:allow deadexport -- Phoenix histogram workload: the engine benchmarks (bench_test) and one-task tests run every workload
func HistogramSpec() mapreduce.Spec[HistKey, int, int] {
	sum := func(vs []int) int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s
	}
	return mapreduce.Spec[HistKey, int, int]{
		Name:  "histogram",
		Split: pixelSplitter,
		Map: func(chunk []byte, emit func(HistKey, int)) error {
			if len(chunk)%3 != 0 {
				return fmt.Errorf("workloads: chunk of %d bytes is not whole pixels", len(chunk))
			}
			// Local 768-bucket array: the classic histogram optimization —
			// emit once per bucket, not once per pixel.
			var local [3][256]int
			for i := 0; i+2 < len(chunk); i += 3 {
				local[0][chunk[i]]++
				local[1][chunk[i+1]]++
				local[2][chunk[i+2]]++
			}
			for ch := 0; ch < 3; ch++ {
				for v, n := range local[ch] {
					if n > 0 {
						emit(HistKey{Channel: HistChannel(ch), Value: uint8(v)}, n)
					}
				}
			}
			return nil
		},
		// Folds in place — see WordCountSpec's combiner.
		Combine: func(_ HistKey, vs []int) []int { vs[0] = sum(vs); return vs[:1] },
		Reduce:  func(_ HistKey, vs []int) (int, error) { return sum(vs), nil },
		Less: func(a, b HistKey) bool {
			if a.Channel != b.Channel {
				return a.Channel < b.Channel
			}
			return a.Value < b.Value
		},
		FootprintFactor: 1.1, // fixed key space: nearly streaming
	}
}

// pixelSplitter aligns chunks to 3-byte pixel boundaries.
func pixelSplitter(data []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 {
		chunkSize = len(data)
	}
	chunkSize -= chunkSize % 3
	if chunkSize < 3 {
		chunkSize = 3
	}
	usable := len(data) - len(data)%3
	var chunks [][]byte
	for off := 0; off < usable; off += chunkSize {
		end := off + chunkSize
		if end > usable {
			end = usable
		}
		chunks = append(chunks, data[off:end])
	}
	return chunks
}

// HistogramSeq is the sequential baseline.
//
//mcsdlint:allow deadexport -- reference implementation the histogram engine tests compare against
func HistogramSeq(data []byte) map[HistKey]int {
	out := make(map[HistKey]int)
	usable := len(data) - len(data)%3
	for i := 0; i+2 < usable; i += 3 {
		out[HistKey{ChannelR, data[i]}]++
		out[HistKey{ChannelG, data[i+1]}]++
		out[HistKey{ChannelB, data[i+2]}]++
	}
	return out
}
