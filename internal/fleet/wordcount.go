package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/partition"
	"mcsd/internal/workloads"
)

// WordCountJob describes a cluster-wide word count over one shared file.
type WordCountJob struct {
	// DataFile is the input path on every node's data store (the fleet
	// model: the file is reachable from each SD node, each node reads only
	// its assigned byte ranges).
	DataFile string
	// TotalBytes is the file size; the coordinator plans ranges from it
	// without touching file content.
	TotalBytes int64
	// FragmentBytes is the placement granularity (draft range size; the
	// word alignment happens node-side). Zero or >= TotalBytes means one
	// range.
	FragmentBytes int64
	// PartitionBytes is the node-side partition size within a bundle
	// (workloads.WordCountParams semantics, negative to let the node
	// pick). Zero means FragmentBytes: one partition per range, so a
	// node's engine counts one range while its disk serves the next.
	PartitionBytes int64
	// Workers overrides each node's worker count (0 = node default).
	Workers int
	// TopN bounds the merged frequency table (0 = 100, matching the
	// single-node module default — required for byte-identical output).
	TopN int
}

// WordCountResult is the gathered, merged outcome of a fleet word count.
type WordCountResult struct {
	// Output carries the merged result with exactly the semantics of a
	// single-node EmitPairs run: identical TotalWords, UniqueWords, Pairs
	// and Top for identical input, regardless of node count, placement,
	// straggler re-execution or failover.
	Output workloads.WordCountOutput
	// Fragments are the winning attempts, in index order: one per bundle
	// for WordCount, one per sealed object for WordCountSealed.
	Fragments []FragmentResult
	// Stats is the coordinator's dispatch accounting.
	Stats Stats
}

// WordCount scatters the file's ranges across the fleet as one bundle per
// node and folds each node's sorted (word, count) run into the result as
// it lands. Addition is commutative and associative and the final key sort
// is total, so the output is byte-identical to a single-node execution of
// the same file.
func (c *Coordinator) WordCount(ctx context.Context, job WordCountJob) (*WordCountResult, error) {
	if job.DataFile == "" {
		return nil, fmt.Errorf("fleet: wordcount requires a data file")
	}
	if job.TotalBytes <= 0 {
		return nil, fmt.Errorf("fleet: wordcount requires the file size, got %d", job.TotalBytes)
	}
	frags, err := c.bundleFragments(job)
	if err != nil {
		return nil, err
	}
	return c.gatherWordCount(ctx, frags, job.TopN)
}

// bundleFragments plans a shared-file job as one bundle per node. The
// file's aligned ranges are placed by bounded-load HRW over their
// "<file>#<index>" keys (Ring.BoundedOwners), and each node's ranges
// travel as one EmitPairs word count that the node answers with one merged
// run. A bundle is keyed "<file>@<node>", pinned Home to its node, and
// never split: it is dispatched, re-placed and folded whole, so every
// range is counted exactly once by the existing one-correlation-ID,
// first-wins rule (DESIGN.md §5g).
func (c *Coordinator) bundleFragments(job WordCountJob) ([]Fragment, error) {
	ranges := partition.AlignedRanges(job.TotalBytes, job.FragmentBytes)
	keys := make([]string, len(ranges))
	for i := range ranges {
		keys[i] = fmt.Sprintf("%s#%d", job.DataFile, i)
	}
	owners := c.ring.BoundedOwners(keys)
	if owners == nil {
		return nil, fmt.Errorf("fleet: %w", ErrNoNodes)
	}
	partBytes := job.PartitionBytes
	if partBytes == 0 && job.FragmentBytes > 0 {
		partBytes = job.FragmentBytes
	}
	var frags []Fragment
	for _, n := range c.nodes {
		var mine [][2]int64
		for i, owner := range owners {
			if owner == n.Name {
				mine = append(mine, ranges[i])
			}
		}
		if len(mine) == 0 {
			continue
		}
		params, err := json.Marshal(workloads.WordCountParams{
			DataFile:       job.DataFile,
			PartitionBytes: partBytes,
			Workers:        job.Workers,
			Ranges:         mine,
			EmitPairs:      true,
			TopN:           1, // per-bundle tops are discarded; keep them tiny
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: encoding %s's bundle: %w", n.Name, err)
		}
		frags = append(frags, Fragment{Index: len(frags), Key: job.DataFile + "@" + n.Name, Home: n.Name, Params: params})
	}
	return frags, nil
}

// gatherWordCount executes word-count fragments and folds every first-win
// result into one count table on the gather loop, as it arrives: by the
// time the last fragment returns, only the key sort and the top table are
// left. The host time spent folding and finishing is fleet.merge.
func (c *Coordinator) gatherWordCount(ctx context.Context, frags []Fragment, topN int) (*WordCountResult, error) {
	var (
		out    workloads.WordCountOutput
		counts = make(map[string]int)
		spent  time.Duration
	)
	fold := func(fr FragmentResult) error {
		start := time.Now()
		defer func() { spent += time.Since(start) }()
		var o workloads.WordCountOutput
		if err := o.UnmarshalBinary(fr.Payload); err != nil {
			return fmt.Errorf("fleet: fragment %d result: %w", fr.Index, err)
		}
		for _, p := range o.Pairs {
			counts[p.Word] += p.Count
		}
		out.Fragments += o.Fragments
		out.FragmentKeys += o.UniqueWords
		out.ShuffleMs += o.ShuffleMs
		out.MergeMs += o.MergeMs
		return nil
	}
	results, stats, err := c.execute(ctx, workloads.ModuleWordCount, frags, fold)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	if len(counts) > 0 {
		out.Pairs = make([]workloads.WordFreq, 0, len(counts))
		for w, n := range counts {
			out.Pairs = append(out.Pairs, workloads.WordFreq{Word: w, Count: n})
			out.TotalWords += int64(n)
		}
		slices.SortFunc(out.Pairs, func(a, b workloads.WordFreq) int { return strings.Compare(a.Word, b.Word) })
	}
	out.UniqueWords = len(out.Pairs)
	if topN <= 0 {
		topN = 100
	}
	for _, pr := range workloads.TopWords(counts, topN) {
		out.Top = append(out.Top, workloads.WordFreq{Word: pr.Key, Count: pr.Value})
	}
	c.cfg.Metrics.Timer(metrics.FleetMerge).Observe(spent + time.Since(start))
	return &WordCountResult{Output: out, Fragments: results, Stats: stats}, nil
}

// SealedWordCountJob describes a word count over a replicated FileSet: the
// input lives as sealed fragment objects on the store rather than as one
// shared file, so every dispatch is pinned to the object's replica holders
// and every read is CRC-verified node-side.
type SealedWordCountJob struct {
	// Set is the replicated input (from Store.PutFile).
	Set *FileSet
	// PartitionBytes is the node-side partition size within a fragment
	// (workloads.WordCountParams semantics).
	PartitionBytes int64
	// Workers overrides each node's worker count (0 = node default).
	Workers int
	// TopN bounds the merged frequency table (0 = 100).
	TopN int
}

// WordCountSealed scatters a replicated file's fragments across their
// holder nodes and folds the gathered runs exactly like WordCount. A
// holder serving a bit-flipped copy fails CRC verification node-side; the
// coordinator falls back to the next replica and repairs the bad copy after
// the gather, so the output stays byte-identical to a single-node run even
// through simultaneous node death and replica corruption. Requires
// Config.Store.
//
//mcsdlint:allow deadexport -- replicated word count; the ROADMAP "one fleet word count" item folds it into WordCount and gives it a caller
func (c *Coordinator) WordCountSealed(ctx context.Context, job SealedWordCountJob) (*WordCountResult, error) {
	if c.cfg.Store == nil {
		return nil, fmt.Errorf("fleet: sealed wordcount requires Config.Store")
	}
	if job.Set == nil || len(job.Set.Objects) == 0 {
		return nil, fmt.Errorf("fleet: sealed wordcount requires a non-empty file set")
	}
	frags := make([]Fragment, len(job.Set.Objects))
	for i, obj := range job.Set.Objects {
		params, err := json.Marshal(workloads.WordCountParams{
			DataFile:       obj,
			Sealed:         true,
			PartitionBytes: job.PartitionBytes,
			Workers:        job.Workers,
			EmitPairs:      true,
			TopN:           1, // per-fragment tops are discarded; keep them tiny
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: encoding fragment %d: %w", i, err)
		}
		frags[i] = Fragment{Index: i, Key: obj, Replicas: c.cfg.Store.Replicas(obj), Params: params}
	}
	return c.gatherWordCount(ctx, frags, job.TopN)
}

// CanonicalWordCount serializes the order-independent semantic fields of
// a word-count output — the bytes that must match between a single-node
// run and any N-node fleet run over the same input. Timings and
// fragment-accounting fields are excluded: they describe the execution,
// not the answer.
func CanonicalWordCount(out *workloads.WordCountOutput) []byte {
	b, err := json.Marshal(struct {
		TotalWords  int64                `json:"total_words"`
		UniqueWords int                  `json:"unique_words"`
		Top         []workloads.WordFreq `json:"top"`
		Pairs       []workloads.WordFreq `json:"pairs"`
	}{out.TotalWords, out.UniqueWords, out.Top, out.Pairs})
	if err != nil {
		// Plain data marshals unconditionally; keep the signature clean.
		panic(fmt.Sprintf("fleet: canonicalizing output: %v", err))
	}
	return b
}
