// Package netsim models the cluster interconnect of the McSD testbed.
//
// It serves two consumers:
//
//   - The real execution engine wraps its TCP loopback connections in
//     Throttle so that bytes moving between the "host" and the "SD node"
//     pay Gigabit-Ethernet costs, exactly as NFS traffic did in the paper's
//     testbed.
//   - The discrete-event simulator (internal/sim) uses Profile.TransferTime
//     as the analytic cost of moving data across a link, including the
//     background load injected by the Sandia Micro Benchmark emulator.
package netsim

import (
	"fmt"
	"time"
)

// Profile describes one interconnect technology.
type Profile struct {
	Name string
	// BandwidthBps is the usable link bandwidth in bytes per second.
	BandwidthBps float64
	// Latency is the one-way message latency.
	Latency time.Duration
	// PerMessageOverhead is protocol overhead added to every transfer on
	// top of the payload (headers, RPC framing), in bytes.
	PerMessageOverhead int
}

// Interconnect profiles. Usable bandwidth is set below the signalling rate
// to account for protocol overhead (~87% of 1 Gbit for TCP/NFS traffic,
// matching common measurements on the paper's class of hardware).
var (
	// ProfileGigabitEthernet models the testbed's 1000 Mbps switch.
	ProfileGigabitEthernet = Profile{
		Name:               "1GbE",
		BandwidthBps:       109e6, // ~87% of 125 MB/s
		Latency:            100 * time.Microsecond,
		PerMessageOverhead: 128,
	}
	// ProfileFastEthernet models 100 Mbps Ethernet.
	ProfileFastEthernet = Profile{
		Name:               "100MbE",
		BandwidthBps:       11.5e6,
		Latency:            150 * time.Microsecond,
		PerMessageOverhead: 128,
	}
	// ProfileInfiniBand models the QDR InfiniBand upgrade contemplated in
	// the paper's future work (§VI).
	ProfileInfiniBand = Profile{
		Name:               "IB-QDR",
		BandwidthBps:       3.2e9,
		Latency:            2 * time.Microsecond,
		PerMessageOverhead: 64,
	}
)

// TransferTimeLoaded returns the transfer time when a fraction load of the
// link bandwidth is consumed by background traffic (0 <= load < 1).
func (p Profile) TransferTimeLoaded(n int64, load float64) time.Duration {
	if load < 0 {
		load = 0
	}
	if load >= 0.99 {
		load = 0.99
	}
	if n < 0 {
		n = 0
	}
	bytes := float64(n + int64(p.PerMessageOverhead))
	bw := p.BandwidthBps * (1 - load)
	return p.Latency + time.Duration(bytes/bw*float64(time.Second))
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("%s (%.0f MB/s, %v)", p.Name, p.BandwidthBps/1e6, p.Latency)
}
