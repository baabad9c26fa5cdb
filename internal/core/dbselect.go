package core

import (
	"context"
	"fmt"
	"time"

	"mcsd/internal/partition"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// ModuleDBSelect is the database-operation module of the paper's §VI
// extensibility direction: a selection + group-by aggregation executed on
// the storage node, returning only the aggregate.
const ModuleDBSelect = "dbselect"

// DBSelectParams parametrizes the dbselect module.
type DBSelectParams struct {
	DataFile string `json:"data_file"`
	// GroupBy is "region" or "product".
	GroupBy string `json:"group_by"`
	// MinPrice filters rows (0 keeps everything).
	MinPrice       float64 `json:"min_price,omitempty"`
	PartitionBytes int64   `json:"partition_bytes,omitempty"`
	Workers        int     `json:"workers,omitempty"`
}

// DBSelectOutput is the dbselect module's result.
type DBSelectOutput struct {
	// Revenue maps each group to its summed quantity*price.
	Revenue   map[string]float64 `json:"revenue"`
	Groups    int                `json:"groups"`
	Fragments int                `json:"fragments"`
	ElapsedMs int64              `json:"elapsed_ms"`
}

// DBSelectModule returns the dbselect data-intensive module.
func DBSelectModule(cfg ModuleConfig) smartfam.Module {
	return smartfam.ModuleFunc{
		ModuleName: ModuleDBSelect,
		Fn: func(ctx context.Context, raw []byte) ([]byte, error) {
			var p DBSelectParams
			if err := Decode(raw, &p); err != nil {
				return nil, err
			}
			if p.DataFile == "" {
				return nil, fmt.Errorf("core: dbselect requires data_file")
			}
			q := workloads.DBQuery{GroupBy: p.GroupBy, MinPrice: p.MinPrice}
			if err := q.Validate(); err != nil {
				return nil, err
			}
			f, err := cfg.Store.Open(p.DataFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()

			start := time.Now()
			res, err := partition.Run(ctx, cfg.mrConfig(cfg.workers(p.Workers)),
				workloads.DBSelectSpec(q), f,
				partition.Options{FragmentSize: cfg.partitionBytes(p.PartitionBytes, 1.5), Delimiters: []byte{'\n'}},
				workloads.DBSelectMerge)
			if err != nil {
				return nil, err
			}
			out := DBSelectOutput{
				Revenue:   make(map[string]float64, len(res.Pairs)),
				Groups:    len(res.Pairs),
				Fragments: res.Fragments,
				ElapsedMs: time.Since(start).Milliseconds(),
			}
			for _, pr := range res.Pairs {
				out.Revenue[pr.Key] = pr.Value
			}
			return encode(out)
		},
	}
}
