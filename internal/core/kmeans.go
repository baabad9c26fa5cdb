package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// ModuleKMeans clusters a file of encoded points on the storage node via
// iterated MapReduce (workloads.KMeansPartitioned): the data streams from
// the SD node's disk every round and only k centroids ever cross the wire.
const ModuleKMeans = "kmeans"

// KMeansParams parametrizes the kmeans module. DataFile holds little-
// endian float64 records, Dim values per point (datagen -kind points).
type KMeansParams struct {
	DataFile string `json:"data_file"`
	Dim      int    `json:"dim"`
	K        int    `json:"k"`
	// MaxRounds bounds the iteration (0 = 50).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Tol is the convergence threshold on centroid movement (0 = 1e-6).
	Tol float64 `json:"tol,omitempty"`
	// PartitionBytes streams each round in fragments; 0 = native,
	// negative picks from the node's memory model.
	PartitionBytes int64 `json:"partition_bytes,omitempty"`
	Workers        int   `json:"workers,omitempty"`
}

// KMeansOutput is the kmeans module's result.
type KMeansOutput struct {
	Centroids [][]float64 `json:"centroids"`
	Rounds    int         `json:"rounds"`
	Converged bool        `json:"converged"`
	LastShift float64     `json:"last_shift"`
	ElapsedMs int64       `json:"elapsed_ms"`
}

// KMeansModule returns the kmeans data-intensive module.
func KMeansModule(cfg ModuleConfig) smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: ModuleKMeans,
		Fn: func(ctx context.Context, raw []byte) ([]byte, error) {
			var p KMeansParams
			if err := Decode(raw, &p); err != nil {
				return nil, err
			}
			if p.DataFile == "" {
				return nil, fmt.Errorf("core: kmeans requires data_file")
			}
			if p.Dim <= 0 || p.K <= 0 {
				return nil, fmt.Errorf("core: kmeans requires dim > 0 and k > 0")
			}
			maxRounds := p.MaxRounds
			if maxRounds <= 0 {
				maxRounds = 50
			}
			open := func() (io.ReadCloser, error) { return cfg.Store.Open(p.DataFile) }
			start := time.Now()
			res, err := workloads.KMeansPartitioned(ctx,
				cfg.mrConfig(cfg.workers(p.Workers)), open,
				p.Dim, p.K, maxRounds, p.Tol,
				cfg.partitionBytes(p.PartitionBytes, 1.2))
			if err != nil {
				return nil, err
			}
			out := KMeansOutput{
				Rounds:    res.Rounds,
				Converged: res.Converged,
				LastShift: res.LastShift,
				ElapsedMs: time.Since(start).Milliseconds(),
			}
			for _, c := range res.Centroids {
				out.Centroids = append(out.Centroids, []float64(c))
			}
			return encode(out)
		},
	}
}
