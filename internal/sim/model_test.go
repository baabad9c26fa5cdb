package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcsd/internal/cluster"
	"mcsd/internal/netsim"
	"mcsd/internal/workloads"
)

const gb = int64(1) << 30

func sdNode() cluster.Node   { return *cluster.TableI().SD() }
func hostNode() cluster.Node { return *cluster.TableI().Host() }

func TestDataAppTimeZeroAndNegative(t *testing.T) {
	out, err := DataAppTime(workloads.WordCountCost(), 0, Exec{Node: sdNode()})
	if err != nil || out.Elapsed != 0 {
		t.Fatalf("zero input = (%+v, %v)", out, err)
	}
	if _, err := DataAppTime(workloads.WordCountCost(), -1, Exec{Node: sdNode()}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestDataAppTimeMonotonicInSize(t *testing.T) {
	prev := time.Duration(0)
	for _, size := range []int64{100 << 20, 500 << 20, gb, 2 * gb} {
		out, err := DataAppTime(workloads.WordCountCost(), size,
			Exec{Node: sdNode(), PartitionBytes: 600 << 20})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if out.Elapsed <= prev {
			t.Fatalf("elapsed not increasing at %d: %v <= %v", size, out.Elapsed, prev)
		}
		prev = out.Elapsed
	}
}

func TestDataAppTimeMoreCoresFaster(t *testing.T) {
	duo, err := DataAppTime(workloads.WordCountCost(), 500<<20, Exec{Node: sdNode(), WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := DataAppTime(workloads.WordCountCost(), 500<<20,
		Exec{Node: sdNode(), Cores: 1, WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(single.Elapsed) / float64(duo.Elapsed)
	if ratio < 1.7 || ratio > 2.1 {
		t.Fatalf("duo-core speedup = %.2f, want ~1.9 (paper: ~2x on duo)", ratio)
	}
}

func TestDataAppTimeNativeOOMPastWall(t *testing.T) {
	// WC footprint 3x: 1.5 GB input = 4.5 GB > 3.8 GB limit -> OOM,
	// matching "traditional Phoenix cannot support ... larger than 1.5G".
	_, err := DataAppTime(workloads.WordCountCost(), 3*gb/2, Exec{Node: sdNode()})
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
	// 1.25 GB (3.75 GB footprint) still runs — the paper measured it.
	if _, err := DataAppTime(workloads.WordCountCost(), 5*gb/4, Exec{Node: sdNode()}); err != nil {
		t.Fatalf("1.25G native should run (thrashing): %v", err)
	}
}

func TestDataAppTimePartitionedBeatsWall(t *testing.T) {
	// 2 GB input partitioned at 600 MB: runs, no thrash, no OOM.
	out, err := DataAppTime(workloads.WordCountCost(), 2*gb,
		Exec{Node: sdNode(), PartitionBytes: 600 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if out.SwapTime != 0 {
		t.Fatalf("partitioned run thrashes: swap=%v", out.SwapTime)
	}
	if out.Fragments != 4 {
		t.Fatalf("fragments = %d, want 4", out.Fragments)
	}
}

func TestDataAppTimeThrashGrowsNonlinearly(t *testing.T) {
	// Native WC at 1 GB vs 1.25 GB: the swap penalty must grow much
	// faster than the 25% input growth.
	at := func(size int64) DataAppOutcome {
		out, err := DataAppTime(workloads.WordCountCost(), size, Exec{Node: sdNode()})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		return out
	}
	s1, s2 := at(gb), at(5*gb/4)
	if s1.SwapTime <= 0 {
		t.Fatal("1 GB native WC should thrash (3 GB resident on 2 GB node)")
	}
	if float64(s2.SwapTime) < 1.8*float64(s1.SwapTime) {
		t.Fatalf("swap grew %v -> %v; want superlinear growth", s1.SwapTime, s2.SwapTime)
	}
	// Below the wall: no thrash.
	if s := at(500 << 20); s.SwapTime != 0 {
		t.Fatalf("500 MB native WC should not thrash, swap=%v", s.SwapTime)
	}
}

func TestDataAppTimeWarmCacheSkipsReadOnlyWhenFits(t *testing.T) {
	warm, err := DataAppTime(workloads.WordCountCost(), 500<<20,
		Exec{Node: sdNode(), WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReadTime != 0 {
		t.Fatalf("warm in-RAM run paid read time %v", warm.ReadTime)
	}
	// 1 GB WC (3 GB resident) cannot be warm on a 2 GB node.
	big, err := DataAppTime(workloads.WordCountCost(), gb,
		Exec{Node: sdNode(), WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if big.ReadTime == 0 {
		t.Fatal("oversized run must still pay the read")
	}
}

func TestStringMatchThrashesLessThanWordCount(t *testing.T) {
	wc, err := DataAppTime(workloads.WordCountCost(), 5*gb/4, Exec{Node: sdNode()})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := DataAppTime(workloads.StringMatchCost(), 5*gb/4, Exec{Node: sdNode()})
	if err != nil {
		t.Fatal(err)
	}
	if sm.SwapTime >= wc.SwapTime {
		t.Fatalf("SM swap %v >= WC swap %v; SM's small intermediates should thrash far less",
			sm.SwapTime, wc.SwapTime)
	}
}

func TestExecOverrides(t *testing.T) {
	base := Exec{Node: sdNode()}
	// CPUShare slows compute.
	full, err := DataAppTime(workloads.WordCountCost(), 500<<20, base)
	if err != nil {
		t.Fatal(err)
	}
	shared := base
	shared.CPUShare = 0.5
	half, err := DataAppTime(workloads.WordCountCost(), 500<<20, shared)
	if err != nil {
		t.Fatal(err)
	}
	if half.ComputeTime <= full.ComputeTime {
		t.Fatal("CPUShare did not slow compute")
	}
	ratio := float64(half.ComputeTime) / float64(full.ComputeTime)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("half CPU share scaled compute by %.2f, want 2", ratio)
	}
	// ReadBps override replaces the disk.
	slowRead := base
	slowRead.ReadBps = 10e6
	slow, err := DataAppTime(workloads.WordCountCost(), 500<<20, slowRead)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ReadTime <= full.ReadTime {
		t.Fatal("ReadBps override ignored")
	}
	// SwapBps override changes thrash cost (native 1 GB WC thrashes).
	thrashy := Exec{Node: sdNode()}
	fast, err := DataAppTime(workloads.WordCountCost(), gb, thrashy)
	if err != nil {
		t.Fatal(err)
	}
	thrashy.SwapBps = 10e6
	slowSwap, err := DataAppTime(workloads.WordCountCost(), gb, thrashy)
	if err != nil {
		t.Fatal(err)
	}
	if slowSwap.SwapTime <= fast.SwapTime {
		t.Fatal("SwapBps override ignored")
	}
	// Invalid CPUShare values fall back to 1.
	bad := base
	bad.CPUShare = 7
	same, err := DataAppTime(workloads.WordCountCost(), 500<<20, bad)
	if err != nil {
		t.Fatal(err)
	}
	if same.ComputeTime != full.ComputeTime {
		t.Fatal("CPUShare > 1 not clamped")
	}
}

func TestMatMulTimeScaling(t *testing.T) {
	mm := workloads.MatMulCost(1024)
	quad := MatMulTime(mm, hostNode(), 0, 1)
	single := MatMulTime(mm, hostNode(), 1, 1)
	ratio := float64(single) / float64(quad)
	if ratio < 3 || ratio > 4.2 {
		t.Fatalf("quad-core matmul speedup = %.2f, want ~3.5", ratio)
	}
	shared := MatMulTime(mm, hostNode(), 0, HostCPUShare)
	if shared <= quad {
		t.Fatal("CPU share must slow the run")
	}
}

func TestStageBandwidthBelowWire(t *testing.T) {
	p := netsim.ProfileGigabitEthernet
	if StageBandwidth(p, 0) >= p.BandwidthBps {
		t.Fatal("NFS staging cannot exceed wire speed")
	}
	if StageBandwidth(p, 0.5) >= StageBandwidth(p, 0) {
		t.Fatal("background load must reduce staging bandwidth")
	}
	if StageTime(p, 0, 0) != p.Latency {
		t.Fatal("zero-byte stage should cost one latency")
	}
}

func TestInvocationOverheadSmall(t *testing.T) {
	o := InvocationOverhead(netsim.ProfileGigabitEthernet, 0.1)
	if o <= 0 || o > 50*time.Millisecond {
		t.Fatalf("invocation overhead = %v, want a few ms", o)
	}
}

func TestMemoryWall(t *testing.T) {
	mem := sdNode().Memory
	wall := MemoryWall(workloads.WordCountCost(), mem)
	// ~3.8 GB limit / 3 = ~1.27 GB: between the paper's largest working
	// size (1.25 GB) and its reported failure point (1.5 GB).
	if wall < 5*gb/4 || wall > 3*gb/2 {
		t.Fatalf("WC memory wall = %.2f GB, want in (1.25, 1.5]", float64(wall)/float64(gb))
	}
	smWall := MemoryWall(workloads.StringMatchCost(), mem)
	if smWall <= wall {
		t.Fatal("SM (2x footprint) must tolerate larger inputs than WC (3x)")
	}
}

func TestCalibrateFromEngine(t *testing.T) {
	cal, err := CalibrateFromEngine(context.Background(), 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if cal.MeasuredWordCountBps <= 0 || cal.MeasuredStringMatchBps <= 0 {
		t.Fatalf("calibration rates not positive: %+v", cal)
	}
	if cal.Scale <= 0 {
		t.Fatalf("scale = %v", cal.Scale)
	}
}
