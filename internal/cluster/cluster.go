// Package cluster describes the paper's 5-node experimental testbed
// (Table I): one host computing node, one McSD smart-storage node, and
// three general-purpose computing nodes, joined by a 1 Gbit switch, with
// 2 GB of memory per node.
package cluster

import (
	"fmt"

	"mcsd/internal/memsim"
	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
)

// Role classifies a node.
type Role int

// Node roles in the two-layer architecture.
const (
	RoleHost Role = iota
	RoleSmartStorage
	RoleCompute
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleHost:
		return "host"
	case RoleSmartStorage:
		return "smart-storage"
	case RoleCompute:
		return "compute"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// CPU describes a node's processor.
type CPU struct {
	Model    string
	Cores    int
	ClockGHz float64
	// ArchFactor scales per-clock throughput relative to the Core2
	// microarchitecture (1.0); the Celeron 4xx series does less per clock.
	ArchFactor float64
}

// ReferenceClockGHz is the clock of the reference core used by the
// workload cost models: one core of the SD node's E4400.
const ReferenceClockGHz = 2.0

// CoreSpeed returns the per-core speed relative to the reference core.
func (c CPU) CoreSpeed() float64 {
	arch := c.ArchFactor
	if arch <= 0 {
		arch = 1.0
	}
	return c.ClockGHz / ReferenceClockGHz * arch
}

// Node is one machine of the testbed.
type Node struct {
	Name   string
	Role   Role
	CPU    CPU
	Memory memsim.Config
	// DiskReadBps is the local SATA disk's sequential read bandwidth.
	DiskReadBps float64
}

// Cluster is the full testbed.
type Cluster struct {
	Nodes   []Node
	Network netsim.Profile
}

// Testbed CPU models of Table I.
var (
	cpuQ9400 = CPU{Model: "Intel Core2 Quad Q9400", Cores: 4, ClockGHz: 2.66, ArchFactor: 1.0}
	cpuE4400 = CPU{Model: "Intel Core2 Duo E4400", Cores: 2, ClockGHz: 2.0, ArchFactor: 1.0}
	cpuC450  = CPU{Model: "Intel Celeron 450", Cores: 1, ClockGHz: 2.2, ArchFactor: 0.85}
)

// sataDiskBps is the ~2009-era SATA sequential read bandwidth used for
// every node's local disk.
const sataDiskBps = 90e6

// TableI returns the paper's 5-node cluster: host (quad), SD node (duo),
// three Celeron compute nodes; 2 GB memory per node; 1000 Mbps network.
func TableI() Cluster {
	mem := memsim.DefaultConfig() // 2 GB, the Table I memory row
	mkNode := func(name string, role Role, cpu CPU) Node {
		return Node{Name: name, Role: role, CPU: cpu, Memory: mem, DiskReadBps: sataDiskBps}
	}
	return Cluster{
		Nodes: []Node{
			mkNode("host", RoleHost, cpuQ9400),
			mkNode("sd", RoleSmartStorage, cpuE4400),
			mkNode("node1", RoleCompute, cpuC450),
			mkNode("node2", RoleCompute, cpuC450),
			mkNode("node3", RoleCompute, cpuC450),
		},
		Network: netsim.ProfileGigabitEthernet,
	}
}

// TraditionalSDNode returns the single-core smart-storage node of the
// paper's comparison scenario (1): same E4400-class core, but only one.
func TraditionalSDNode() Node {
	cpu := cpuE4400
	cpu.Model = "single-core SD (E4400-class, 1 core)"
	cpu.Cores = 1
	return Node{
		Name:        "trad-sd",
		Role:        RoleSmartStorage,
		CPU:         cpu,
		Memory:      memsim.DefaultConfig(),
		DiskReadBps: sataDiskBps,
	}
}

// Host returns the host computing node.
func (c Cluster) Host() *Node { return c.byRole(RoleHost) }

// SD returns the first smart-storage node — the whole fleet in the
// paper's single-SD testbed, the N=1 accessor in a multi-SD one.
func (c Cluster) SD() *Node { return c.byRole(RoleSmartStorage) }

func (c Cluster) byRole(r Role) *Node {
	for i := range c.Nodes {
		if c.Nodes[i].Role == r {
			return &c.Nodes[i]
		}
	}
	return nil
}

// TableIReport renders the cluster configuration as the paper's Table I.
func (c Cluster) TableIReport() *metrics.Table {
	t := metrics.NewTable("Table I: configuration of the 5-node cluster",
		"Node", "Role", "CPU", "Cores", "Clock(GHz)", "Memory(GB)", "Network")
	for _, n := range c.Nodes {
		t.AddRow(n.Name, n.Role.String(), n.CPU.Model, n.CPU.Cores, n.CPU.ClockGHz,
			float64(n.Memory.CapacityBytes)/(1<<30), c.Network.Name)
	}
	return t
}
