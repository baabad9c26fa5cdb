package core

import (
	"encoding/json"

	"mcsd/internal/memsim"
	"mcsd/internal/partition"
	"mcsd/internal/sched"
	"mcsd/internal/workloads"
)

// NewFootprintEstimator prices the standard modules' requests for the
// scheduler's memory-aware admission control: it sizes the input from the
// store and pairs it with the workload's footprint factor (DESIGN.md §3 —
// word count peaks near 3× its input, string match near 2×), so the
// scheduler can keep concurrent jobs out of the swap-thrash region.
//
// Partitioned runs never hold the whole input resident: the effective
// input charged is what partition.Each's fragment pool may hold at once
// (partition.ResidentBytes), capped at the file size. An unknown module, a
// malformed payload, or a missing file estimates to zero bytes — the
// scheduler admits such jobs freely rather than guessing.
func NewFootprintEstimator(store DataStore, mem *memsim.Accountant) sched.Estimator {
	memCfg := memsim.DefaultConfig()
	if mem != nil {
		memCfg = mem.Config()
	}
	size := func(name string) int64 {
		if name == "" || store == nil {
			return 0
		}
		n, err := store.Size(name)
		if err != nil {
			return 0
		}
		return n
	}
	// partitioned prices a partitioned module run at the workload's factor.
	// The fragment size resolves through the module's own partitionBytes,
	// so the estimate matches what the module will actually do.
	modCfg := ModuleConfig{Memory: mem}
	partitioned := func(file string, requested int64, factor float64) (int64, float64) {
		total, frag := size(file), modCfg.partitionBytes(requested, factor)
		if frag <= 0 {
			return total, factor
		}
		return min(total, partition.ResidentBytes(memCfg, frag, factor)), factor
	}

	return func(module string, params []byte) (int64, float64) {
		switch module {
		case ModuleWordCount:
			var p WordCountParams
			if json.Unmarshal(params, &p) != nil {
				return 0, 0
			}
			return partitioned(p.DataFile, p.PartitionBytes, workloads.WordCountFootprint)
		case ModuleStringMatch:
			var p StringMatchParams
			if json.Unmarshal(params, &p) != nil {
				return 0, 0
			}
			return partitioned(p.DataFile, p.PartitionBytes, workloads.StringMatchFootprint)
		case ModuleDBSelect:
			var p DBSelectParams
			if json.Unmarshal(params, &p) != nil {
				return 0, 0
			}
			const dbFootprint = 1.5
			return partitioned(p.DataFile, p.PartitionBytes, dbFootprint)
		case ModuleKMeans:
			var p KMeansParams
			if json.Unmarshal(params, &p) != nil {
				return 0, 0
			}
			const kmFootprint = 1.1 // nearly streaming: fixed centroid table
			return partitioned(p.DataFile, p.PartitionBytes, kmFootprint)
		case ModuleMatMul:
			var p MatMulParams
			if json.Unmarshal(params, &p) != nil || p.N <= 0 {
				return 0, 0
			}
			// Three dense n×n float64 matrices resident (A, B, C).
			return int64(p.N) * int64(p.N) * 8 * 3, 1.0
		default:
			return 0, 0
		}
	}
}
