package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"mcsd/internal/mapreduce"
	"mcsd/internal/memsim"
	"mcsd/internal/partition"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// ModuleConfig configures the standard data-intensive modules for one
// node.
type ModuleConfig struct {
	// Store is where the node's data files live.
	Store DataStore
	// Workers is the node's core count for MapReduce (0 = GOMAXPROCS).
	Workers int
	// Memory optionally admission-controls runs — native executions of
	// oversized inputs fail exactly like the paper's Phoenix.
	Memory *memsim.Accountant
}

func (c ModuleConfig) workers(override int) int {
	if override > 0 {
		return override
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c ModuleConfig) mrConfig(workers int) mapreduce.Config {
	return mapreduce.Config{Workers: workers, Memory: c.Memory}
}

// partitionBytes resolves a requested partition size: >0 passes through,
// 0 stays native, a negative size asks partition.AutoFragmentSize with the
// node's memory model (or the default Table I node when the module has no
// accountant).
func (c ModuleConfig) partitionBytes(requested int64, footprintFactor float64) int64 {
	if requested >= 0 {
		return requested
	}
	mem := memsim.DefaultConfig()
	if c.Memory != nil {
		mem = c.Memory.Config()
	}
	return partition.AutoFragmentSize(mem, footprintFactor)
}

// StandardModules returns the preloaded modules of a McSD node: the
// paper's three benchmark applications — word count, string match, matrix
// multiplication — plus the §VI extensibility modules: the dbselect
// database operation and iterative out-of-core k-means.
func StandardModules(cfg ModuleConfig) []smartfam.Module {
	return []smartfam.Module{
		WordCountModule(cfg),
		StringMatchModule(cfg),
		MatMulModule(cfg),
		DBSelectModule(cfg),
		KMeansModule(cfg),
	}
}

// WordCountModule returns the wordcount data-intensive module.
func WordCountModule(cfg ModuleConfig) smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: ModuleWordCount,
		Fn: func(ctx context.Context, raw []byte) ([]byte, error) {
			var p WordCountParams
			if err := Decode(raw, &p); err != nil {
				return nil, err
			}
			if p.DataFile == "" {
				return nil, fmt.Errorf("core: wordcount requires data_file")
			}
			store := cfg.Store
			if p.Sealed {
				if len(p.Ranges) > 0 {
					return nil, fmt.Errorf("core: wordcount: sealed fragments exclude byte ranges")
				}
				store = SealedStore(store)
			}
			var input io.Reader
			if len(p.Ranges) > 0 {
				// Fleet bundle: the word-aligned views of the ranges, back
				// to back. Each range declares its scan length, so remote
				// stores prefetch only the range, not their full read-ahead
				// window.
				rc, err := partition.NewRangeChain(p.Ranges, func(off, length int64) (io.ReadCloser, error) {
					return OpenRange(store, p.DataFile, off, length)
				})
				if err != nil {
					return nil, err
				}
				defer rc.Close()
				input = rc
			} else {
				f, err := store.Open(p.DataFile)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				input = f
			}

			// Each worker counts its fragments into one table of the
			// job; the tables fold once, after the last fragment.
			start := time.Now()
			workers := cfg.workers(p.Workers)
			job := workloads.NewWordCountJob(workers)
			fragments, err := partition.Each(ctx, cfg.mrConfig(workers), input,
				partition.Options{FragmentSize: cfg.partitionBytes(p.PartitionBytes, workloads.WordCountFootprint)},
				workloads.WordCountFootprint, job.Count)
			if err != nil {
				return nil, err
			}
			topN := p.TopN
			if topN <= 0 {
				topN = 100
			}
			out := job.Output(topN, p.EmitPairs)
			out.Fragments = fragments
			out.ElapsedMs = time.Since(start).Milliseconds()
			return encode(out)
		},
	}
}

// StringMatchModule returns the stringmatch data-intensive module.
func StringMatchModule(cfg ModuleConfig) smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: ModuleStringMatch,
		Fn: func(ctx context.Context, raw []byte) ([]byte, error) {
			var p StringMatchParams
			if err := Decode(raw, &p); err != nil {
				return nil, err
			}
			if p.DataFile == "" || p.KeysFile == "" {
				return nil, fmt.Errorf("core: stringmatch requires data_file and keys_file")
			}
			keys, err := readLines(cfg.Store, p.KeysFile)
			if err != nil {
				return nil, err
			}
			if len(keys) == 0 {
				return nil, fmt.Errorf("core: keys file %s is empty", p.KeysFile)
			}
			f, err := cfg.Store.Open(p.DataFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()

			start := time.Now()
			res, err := partition.Run(ctx, cfg.mrConfig(cfg.workers(p.Workers)),
				workloads.StringMatchSpec(keys), f,
				partition.Options{FragmentSize: cfg.partitionBytes(p.PartitionBytes, workloads.StringMatchFootprint), Delimiters: []byte{'\n'}},
				workloads.StringMatchMerge)
			if err != nil {
				return nil, err
			}
			sampleMax := p.SampleLines
			if sampleMax <= 0 {
				sampleMax = 10
			}
			out := StringMatchOutput{
				HitsPerKey: make(map[string]int, len(res.Pairs)),
				Fragments:  res.Fragments,
				ElapsedMs:  time.Since(start).Milliseconds(),
			}
			// Sample in key order, and within a key in file order (the
			// merge concatenates fragments in scan order), so one file
			// always samples the same lines.
			slices.SortFunc(res.Pairs, func(a, b mapreduce.Pair[string, []string]) int {
				return strings.Compare(a.Key, b.Key)
			})
			for _, pr := range res.Pairs {
				out.HitsPerKey[pr.Key] = len(pr.Value)
				out.TotalHits += int64(len(pr.Value))
				for _, line := range pr.Value {
					if len(out.Sample) < sampleMax {
						out.Sample = append(out.Sample, line)
					}
				}
			}
			return encode(out)
		},
	}
}

// MatMulModule returns the matmul module (the computation-intensive
// benchmark; offloadable for completeness, though the McSD framework
// normally keeps it on the host).
func MatMulModule(cfg ModuleConfig) smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: ModuleMatMul,
		Fn: func(ctx context.Context, raw []byte) ([]byte, error) {
			var p MatMulParams
			if err := Decode(raw, &p); err != nil {
				return nil, err
			}
			if p.N <= 0 {
				return nil, fmt.Errorf("core: matmul requires n > 0")
			}
			a := workloads.RandomMatrix(p.N, p.N, p.SeedA)
			b := workloads.RandomMatrix(p.N, p.N, p.SeedB)
			start := time.Now()
			res, err := mapreduce.Run(ctx, cfg.mrConfig(cfg.workers(p.Workers)),
				workloads.MatMulSpec(a, b), workloads.RowIndexInput(p.N))
			if err != nil {
				return nil, err
			}
			c, err := workloads.AssembleMatrix(p.N, p.N, res.Pairs)
			if err != nil {
				return nil, err
			}
			out := MatMulOutput{N: p.N, ElapsedMs: time.Since(start).Milliseconds()}
			for i := 0; i < p.N; i++ {
				out.Trace += c.At(i, i)
			}
			for _, v := range c.Data {
				out.FrobSq += v * v
			}
			return encode(out)
		},
	}
}

// readLines reads a whole file from the store and splits it into non-empty
// lines.
func readLines(store DataStore, name string) ([]string, error) {
	f, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("core: reading %s: %w", name, err)
	}
	return lines, nil
}
