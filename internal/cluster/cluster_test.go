package cluster

import (
	"strings"
	"testing"
)

func TestTableIShape(t *testing.T) {
	c := TableI()
	if len(c.Nodes) != 5 {
		t.Fatalf("cluster has %d nodes, want 5", len(c.Nodes))
	}
	host, sd := c.Host(), c.SD()
	if host == nil || sd == nil {
		t.Fatal("missing host or SD node")
	}
	if host.CPU.Cores != 4 || host.CPU.ClockGHz != 2.66 {
		t.Fatalf("host CPU = %+v, want quad 2.66 GHz Q9400", host.CPU)
	}
	if sd.CPU.Cores != 2 || sd.CPU.ClockGHz != 2.0 {
		t.Fatalf("SD CPU = %+v, want duo 2.0 GHz E4400", sd.CPU)
	}
	if got := len(nodesWithRole(c, RoleCompute)); got != 3 {
		t.Fatalf("%d compute nodes, want 3", got)
	}
	for _, n := range c.Nodes {
		if n.Memory.CapacityBytes != 2<<30 {
			t.Fatalf("node %s memory %d, want 2 GB", n.Name, n.Memory.CapacityBytes)
		}
	}
	if c.Network.Name != "1GbE" {
		t.Fatalf("network = %s, want 1GbE", c.Network.Name)
	}
}

func nodesWithRole(c Cluster, r Role) []Node {
	var out []Node
	for _, n := range c.Nodes {
		if n.Role == r {
			out = append(out, n)
		}
	}
	return out
}

func TestCoreSpeedScaling(t *testing.T) {
	c := TableI()
	hostSpeed := c.Host().CPU.CoreSpeed()
	sdSpeed := c.SD().CPU.CoreSpeed()
	if sdSpeed != 1.0 {
		t.Fatalf("SD core speed = %v, want reference 1.0", sdSpeed)
	}
	if hostSpeed <= sdSpeed {
		t.Fatalf("host core (%v) should be faster than SD core (%v)", hostSpeed, sdSpeed)
	}
	celeron := nodesWithRole(c, RoleCompute)[0].CPU.CoreSpeed()
	if celeron >= hostSpeed {
		t.Fatalf("Celeron per-core speed %v should trail the Q9400 %v", celeron, hostSpeed)
	}
}

func TestCoreSpeedArchFactorFallback(t *testing.T) {
	cpu := CPU{ClockGHz: 2.0}
	if cpu.CoreSpeed() != 1.0 {
		t.Fatalf("zero ArchFactor: speed = %v, want fallback 1.0", cpu.CoreSpeed())
	}
}

func TestTraditionalSDNode(t *testing.T) {
	n := TraditionalSDNode()
	if n.CPU.Cores != 1 {
		t.Fatalf("traditional SD has %d cores, want 1", n.CPU.Cores)
	}
	if n.CPU.CoreSpeed() != 1.0 {
		t.Fatalf("traditional SD core speed = %v, want 1.0", n.CPU.CoreSpeed())
	}
	if n.Role != RoleSmartStorage {
		t.Fatalf("role = %v", n.Role)
	}
}

func TestRoleString(t *testing.T) {
	if RoleHost.String() != "host" || RoleSmartStorage.String() != "smart-storage" ||
		RoleCompute.String() != "compute" {
		t.Fatal("role names wrong")
	}
	if !strings.Contains(Role(42).String(), "42") {
		t.Fatal("unknown role should include its number")
	}
}

func TestTableIReport(t *testing.T) {
	rep := TableI().TableIReport()
	out := rep.String()
	for _, want := range []string{"Q9400", "E4400", "Celeron", "1GbE", "2.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I report missing %q:\n%s", want, out)
		}
	}
	if rows := strings.Count(rep.CSV(), "\n") - 1; rows != 5 {
		t.Fatalf("report has %d rows, want 5", rows)
	}
}
