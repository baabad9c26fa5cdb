package memsim

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestConfigUsableAndLimit(t *testing.T) {
	cfg := Config{CapacityBytes: 1000, UsableFraction: 0.9, SwapBytes: 500}
	if got := cfg.Usable(); got != 900 {
		t.Fatalf("Usable = %d, want 900", got)
	}
	if got := cfg.Limit(); got != 1400 {
		t.Fatalf("Limit = %d, want 1400", got)
	}
}

func TestConfigUsableFractionFallback(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		cfg := Config{CapacityBytes: 1000, UsableFraction: f}
		if got := cfg.Usable(); got != 900 {
			t.Fatalf("UsableFraction %v: Usable = %d, want fallback 900", f, got)
		}
	}
}

func TestSwapSecondsZeroInsideRAM(t *testing.T) {
	cfg := DefaultConfig()
	for _, resident := range []int64{0, 1 << 20, cfg.Usable()} {
		if s := cfg.SwapSeconds(resident, 90e6); s != 0 {
			t.Fatalf("SwapSeconds(%d) = %v, want 0 inside RAM", resident, s)
		}
	}
}

func TestSwapSecondsQuadraticInExcess(t *testing.T) {
	cfg := DefaultConfig()
	usable := cfg.Usable()
	s1 := cfg.SwapSeconds(usable+1<<28, 90e6) // 256 MB excess
	s2 := cfg.SwapSeconds(usable+1<<29, 90e6) // 512 MB excess
	if s1 <= 0 {
		t.Fatal("overcommit produced no swap cost")
	}
	ratio := s2 / s1
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("doubling excess scaled cost by %.2f, want 4 (quadratic)", ratio)
	}
}

func TestSwapSecondsScalesInverselyWithBacking(t *testing.T) {
	cfg := DefaultConfig()
	resident := cfg.Usable() + 1<<29
	fast := cfg.SwapSeconds(resident, 180e6)
	slow := cfg.SwapSeconds(resident, 90e6)
	if slow <= fast {
		t.Fatal("slower backing store must cost more")
	}
	if r := slow / fast; r < 1.9 || r > 2.1 {
		t.Fatalf("half the bandwidth scaled cost by %.2f, want 2", r)
	}
}

func TestSwapSecondsDegenerateInputs(t *testing.T) {
	cfg := DefaultConfig()
	if s := cfg.SwapSeconds(cfg.Usable()+1<<20, 0); s != 0 {
		t.Fatalf("zero backing bandwidth = %v, want 0 (disabled)", s)
	}
	zero := Config{}
	if s := zero.SwapSeconds(100, 90e6); s != 0 {
		t.Fatalf("zero-capacity config = %v, want 0", s)
	}
}

func TestSwapSecondsPaperAnchors(t *testing.T) {
	// The Fig. 9 anchor: WC at 1.25 GB (3.75 GB resident) on the SD node
	// swapping to a 90 MB/s SATA disk costs ~235 s — the number that makes
	// the non-partitioned run ~7-8x slower than McSD.
	cfg := DefaultConfig()
	s := cfg.SwapSeconds(int64(3.75*float64(1<<30)), 90e6)
	if s < 180 || s < 0 || s > 300 {
		t.Fatalf("swap at 3.75 GB resident = %.0fs, want ~235s", s)
	}
}

func TestReserveReleaseAccounting(t *testing.T) {
	a := NewAccountant(Config{CapacityBytes: 1000, UsableFraction: 1.0, SwapBytes: 0})
	if err := a.Reserve(600); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(400); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-limit reserve err = %v, want ErrOutOfMemory", err)
	}
	if a.Footprint() != 1000 {
		t.Fatalf("failed reserve changed footprint: %d", a.Footprint())
	}
	a.Release(500)
	if a.Footprint() != 500 {
		t.Fatalf("footprint after release = %d, want 500", a.Footprint())
	}
	if a.Peak() != 1000 {
		t.Fatalf("peak = %d, want 1000", a.Peak())
	}
}

func TestReserveNegativeRejected(t *testing.T) {
	a := NewAccountant(DefaultConfig())
	if err := a.Reserve(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	a := NewAccountant(DefaultConfig())
	a.Release(1 << 30)
	if a.Footprint() != 0 {
		t.Fatalf("footprint went negative: %d", a.Footprint())
	}
	a.Release(-5)
	if a.Footprint() != 0 {
		t.Fatalf("negative release changed footprint: %d", a.Footprint())
	}
}

func TestPhoenixMemoryWall(t *testing.T) {
	// WC has a ~3x input footprint (§V-C). With 2 GB RAM + 2 GB swap, a
	// 1 GB input (3 GB footprint) must be admitted but thrash, and a
	// 1.5 GB input (4.5 GB footprint) must OOM — matching the paper's
	// "cannot support … larger than 1.5G".
	a := NewAccountant(DefaultConfig())
	gb := int64(1) << 30
	if err := a.Reserve(3 * gb); err != nil {
		t.Fatalf("3 GB footprint should fit in RAM+swap: %v", err)
	}
	if s := a.cfg.SwapSeconds(a.Footprint(), 90e6); s <= 0 {
		t.Fatalf("3 GB footprint on 2 GB node should thrash, swap time = %vs", s)
	}
	a.Release(3 * gb)
	if err := a.Reserve(4*gb + gb/2); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("4.5 GB footprint err = %v, want ErrOutOfMemory", err)
	}
}

func TestReservationHandleIdempotent(t *testing.T) {
	a := NewAccountant(Config{CapacityBytes: 1000, UsableFraction: 1.0})
	r, err := a.ReserveHandle(400)
	if err != nil {
		t.Fatal(err)
	}
	if a.Footprint() != 400 {
		t.Fatalf("footprint = %d, want 400", a.Footprint())
	}
	r.Release()
	r.Release()
	if a.Footprint() != 0 {
		t.Fatalf("double release freed twice: footprint %d", a.Footprint())
	}
}

func TestReserveHandleFailureLeavesNoUsage(t *testing.T) {
	a := NewAccountant(Config{CapacityBytes: 100, UsableFraction: 1.0})
	if _, err := a.ReserveHandle(200); err == nil {
		t.Fatal("oversized handle accepted")
	}
	if a.Footprint() != 0 {
		t.Fatalf("failed handle left footprint %d", a.Footprint())
	}
}

func TestAccountantConcurrentReserveRelease(t *testing.T) {
	a := NewAccountant(Config{CapacityBytes: 1 << 30, UsableFraction: 1.0})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if err := a.Reserve(1024); err == nil {
					a.Release(1024)
				}
			}
		}()
	}
	wg.Wait()
	if a.Footprint() != 0 {
		t.Fatalf("balanced reserve/release left footprint %d", a.Footprint())
	}
}

// Property: for any sequence of reserve/release pairs, the footprint never
// exceeds the limit and never goes negative.
func TestAccountingInvariantsProperty(t *testing.T) {
	prop := func(ops []int32) bool {
		cfg := Config{CapacityBytes: 1 << 20, UsableFraction: 1.0, SwapBytes: 1 << 19}
		a := NewAccountant(cfg)
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				_ = a.Reserve(n % (1 << 18))
			} else {
				a.Release((-n) % (1 << 18))
			}
			fp := a.Footprint()
			if fp < 0 || fp > cfg.Limit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: peak is always >= footprint and never decreases under load.
func TestPeakInvariantProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		a := NewAccountant(Config{CapacityBytes: 1 << 30, UsableFraction: 1.0})
		maxSeen := int64(0)
		for _, s := range sizes {
			if err := a.Reserve(int64(s)); err != nil {
				return false
			}
			if fp := a.Footprint(); fp > maxSeen {
				maxSeen = fp
			}
			if a.Peak() < a.Footprint() {
				return false
			}
		}
		return a.Peak() == maxSeen
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
