package sim

import (
	"errors"
	"fmt"
	"time"

	"mcsd/internal/cluster"
	"mcsd/internal/workloads"
)

// Scenario is one of the four execution modes of the multiple-application
// evaluation (§V-C).
type Scenario int

// The four scenarios of §V-C.
const (
	// ScenarioMcSD is the optimized approach: "the host machine handles
	// the computation-intensive part and the SD machine processes the
	// on-node data-intensive function", with partitioning enabled on the
	// SD side.
	ScenarioMcSD Scenario = iota
	// ScenarioHostOnly runs both applications on the host node only; the
	// data-intensive input streams over the network from the storage
	// node, and the data-intensive run is native (no partitioning).
	ScenarioHostOnly
	// ScenarioTradSD pairs the host with a traditional single-core smart
	// storage node running the data-intensive function sequentially.
	ScenarioTradSD
	// ScenarioMcSDNoPartition is the duo-core SD running the
	// data-intensive function in parallel but natively — it hits the
	// memory wall as data grows.
	ScenarioMcSDNoPartition
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case ScenarioMcSD:
		return "McSD"
	case ScenarioHostOnly:
		return "Host-only"
	case ScenarioTradSD:
		return "Trad-SD"
	case ScenarioMcSDNoPartition:
		return "McSD-nopart"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// PairConfig describes one multiple-application experiment: a
// computation-intensive matrix multiplication plus a data-intensive
// function over DataBytes of SD-resident data.
type PairConfig struct {
	Cluster        cluster.Cluster
	DataCost       workloads.CostModel
	DataBytes      int64
	MatrixN        int
	PartitionBytes int64
	// SMBLoad is the background network load from the Sandia Micro
	// Benchmark traffic among the non-SD nodes.
	SMBLoad float64
}

// PairOutcome is the simulated result of one scenario.
type PairOutcome struct {
	Scenario Scenario
	Elapsed  time.Duration
	// OOM marks a run the testbed could not complete (memory overflow).
	OOM  bool
	Data DataAppOutcome
	MM   time.Duration
	// Transfer is network time attributable to data/result movement.
	Transfer time.Duration
}

// SimulatePair runs one scenario of the §V-C experiment.
func SimulatePair(cfg PairConfig, scen Scenario) (PairOutcome, error) {
	out := PairOutcome{Scenario: scen}
	host := cfg.Cluster.Host()
	sd := cfg.Cluster.SD()
	if host == nil || sd == nil {
		return out, errors.New("sim: cluster must have host and SD nodes")
	}
	mm := workloads.MatMulCost(cfg.MatrixN)
	net := cfg.Cluster.Network
	resultBytes := int64(cfg.DataCost.OutputRatio * float64(cfg.DataBytes))
	// The host always runs the SMB routine load and serves the compute
	// nodes' NFS mounts; the SD node does neither (§V-A).
	out.MM = MatMulTime(mm, *host, 0, HostCPUShare)

	switch scen {
	case ScenarioMcSD, ScenarioTradSD, ScenarioMcSDNoPartition:
		// Offloaded execution: MM on the host overlaps the data-intensive
		// function on the (smart) storage node; smartFAM carries the
		// invocation and the results cross the share.
		exec := Exec{Node: *sd, PartitionBytes: cfg.PartitionBytes}
		switch scen {
		case ScenarioTradSD:
			trad := cluster.TraditionalSDNode()
			exec = Exec{Node: trad, Cores: 1, PartitionBytes: cfg.PartitionBytes}
		case ScenarioMcSDNoPartition:
			exec.PartitionBytes = 0
		}
		data, err := DataAppTime(cfg.DataCost, cfg.DataBytes, exec)
		if err != nil {
			if errors.Is(err, ErrOOM) {
				out.OOM = true
				return out, nil
			}
			return out, err
		}
		out.Data = data

		invoke := NewTask("smartfam.invoke", InvocationOverhead(net, cfg.SMBLoad))
		sdRun := NewTask("sd.data-app", data.Elapsed).After(invoke)
		ret := NewTask("net.results", StageTime(net, resultBytes, cfg.SMBLoad)).After(sdRun)
		mmTask := NewTask("host.matmul", out.MM)
		sink := Join("done", ret, mmTask)
		elapsed, err := FinishTime(sink)
		if err != nil {
			return out, err
		}
		out.Elapsed = elapsed
		out.Transfer = InvocationOverhead(net, cfg.SMBLoad) + StageTime(net, resultBytes, cfg.SMBLoad)
		return out, nil

	case ScenarioHostOnly:
		// Everything on the host: the data-intensive input streams over
		// the share (NFS read replaces the local-disk read), the run is
		// native, the host's cores are shared with the routine load, and
		// any thrashing swaps against a disk also serving NFS exports.
		// MM and the data app share the host serially.
		exec := Exec{
			Node:     *host,
			CPUShare: HostCPUShare,
			ReadBps:  StageBandwidth(net, cfg.SMBLoad),
			SwapBps:  host.DiskReadBps / HostSwapContention,
		}
		data, err := DataAppTime(cfg.DataCost, cfg.DataBytes, exec)
		if err != nil {
			if errors.Is(err, ErrOOM) {
				out.OOM = true
				return out, nil
			}
			return out, err
		}
		out.Data = data
		seq := Chain(NewTask("host.matmul", out.MM), NewTask("host.data-app", data.Elapsed))
		elapsed, err := FinishTime(seq)
		if err != nil {
			return out, err
		}
		out.Elapsed = elapsed
		out.Transfer = data.ReadTime
		return out, nil

	default:
		return out, fmt.Errorf("sim: unknown scenario %d", int(scen))
	}
}

// Speedup returns baseline/optimized elapsed-time ratio — the paper's
// definition: "the ratio of the elapsed time without the optimization
// technique to that with the McSD technique". OOM baselines have no finite
// ratio; ok is false.
func Speedup(baseline, optimized PairOutcome) (float64, bool) {
	if baseline.OOM || optimized.OOM || optimized.Elapsed <= 0 {
		return 0, false
	}
	return float64(baseline.Elapsed) / float64(optimized.Elapsed), true
}

// SingleMode is an execution mode of the single-application study (§V-B).
type SingleMode int

// Single-application execution modes.
const (
	// SingleSequential runs on one core (partitioned when a fragment
	// size is given).
	SingleSequential SingleMode = iota
	// SingleParallelNative is original Phoenix: all cores, no partition.
	SingleParallelNative
	// SingleParallelPartitioned is the extended Phoenix of Fig. 6.
	SingleParallelPartitioned
)

// SimulateSingle runs one single-application experiment on a node. The
// warm flag corresponds to repeated-trial measurement over a cached input
// (used for the Fig. 8(a) speedup ratios).
func SimulateSingle(cost workloads.CostModel, size int64, node cluster.Node, mode SingleMode, partitionBytes int64, warm bool) (DataAppOutcome, error) {
	exec := Exec{Node: node, WarmCache: warm}
	switch mode {
	case SingleSequential:
		exec.Cores = 1
		exec.PartitionBytes = partitionBytes
	case SingleParallelNative:
		exec.PartitionBytes = 0
	case SingleParallelPartitioned:
		exec.PartitionBytes = partitionBytes
	default:
		return DataAppOutcome{}, fmt.Errorf("sim: unknown single mode %d", int(mode))
	}
	return DataAppTime(cost, size, exec)
}
