package netsim

import (
	"context"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTimeMonotonicInSize(t *testing.T) {
	p := ProfileGigabitEthernet
	prev := time.Duration(0)
	for _, n := range []int64{0, 1, 1 << 10, 1 << 20, 1 << 30} {
		d := p.TransferTimeLoaded(n, 0)
		if d <= prev && n > 0 {
			t.Fatalf("TransferTime(%d) = %v, not greater than previous %v", n, d, prev)
		}
		prev = d
	}
}

func TestTransferTimeNegativeClamped(t *testing.T) {
	p := ProfileGigabitEthernet
	if got, want := p.TransferTimeLoaded(-5, 0), p.TransferTimeLoaded(0, 0); got != want {
		t.Fatalf("TransferTime(-5) = %v, want %v", got, want)
	}
}

func TestTransferTimeGigabitScale(t *testing.T) {
	// 1 GiB over ~109 MB/s should take roughly 9.9 s (+latency).
	d := ProfileGigabitEthernet.TransferTimeLoaded(1<<30, 0)
	if d < 9*time.Second || d > 11*time.Second {
		t.Fatalf("1 GiB over 1GbE = %v, want ~10s", d)
	}
}

func TestTransferTimeLoadedSlower(t *testing.T) {
	p := ProfileGigabitEthernet
	idle := p.TransferTimeLoaded(1<<20, 0)
	loaded := p.TransferTimeLoaded(1<<20, 0.5)
	if loaded <= idle {
		t.Fatalf("loaded transfer %v not slower than idle %v", loaded, idle)
	}
	// 50% load should roughly double the serialization part.
	if loaded > idle*3 {
		t.Fatalf("50%% load slowed transfer by more than 3x: %v vs %v", loaded, idle)
	}
}

func TestTransferTimeLoadClamped(t *testing.T) {
	p := ProfileGigabitEthernet
	if p.TransferTimeLoaded(1<<20, 5.0) <= 0 {
		t.Fatal("over-unity load must clamp, not divide by <= 0")
	}
	if got, want := p.TransferTimeLoaded(1<<20, -1), p.TransferTimeLoaded(1<<20, 0); got != want {
		t.Fatalf("negative load = %v, want same as zero load %v", got, want)
	}
}

func TestProfileOrdering(t *testing.T) {
	n := int64(100 << 20)
	ib := ProfileInfiniBand.TransferTimeLoaded(n, 0)
	ge := ProfileGigabitEthernet.TransferTimeLoaded(n, 0)
	fe := ProfileFastEthernet.TransferTimeLoaded(n, 0)
	if !(ib < ge && ge < fe) {
		t.Fatalf("profile ordering wrong: IB=%v 1GbE=%v 100MbE=%v", ib, ge, fe)
	}
}

func TestNewLimiterRejectsBadRate(t *testing.T) {
	if _, err := NewLimiter(0, 10); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := NewLimiter(-1, 10); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestLimiterAllowNWithinBurst(t *testing.T) {
	l, err := NewLimiter(1e6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !l.AllowN(1000) {
		t.Fatal("full burst should be immediately available")
	}
	if l.AllowN(1000) {
		t.Fatal("bucket should be empty right after draining the burst")
	}
}

func TestLimiterPacesToRate(t *testing.T) {
	// 1 MB/s, tiny burst: sending 100 KB should take ~100 ms.
	l, err := NewLimiter(1e6, 4096)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.WaitN(context.Background(), 100_000); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 70*time.Millisecond {
		t.Fatalf("100KB at 1MB/s took %v, want >= ~96ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("100KB at 1MB/s took %v, way over budget", elapsed)
	}
}

func TestLimiterWaitNRespectsContext(t *testing.T) {
	l, err := NewLimiter(1, 1) // 1 byte/s: effectively stuck
	if err != nil {
		t.Fatal(err)
	}
	l.AllowN(1) // drain
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.WaitN(ctx, 100); err == nil {
		t.Fatal("WaitN returned nil despite cancelled context")
	}
}

func TestLimiterLargeRequestExceedingBurst(t *testing.T) {
	l, err := NewLimiter(1e8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB >> burst: must still complete (sliced), not deadlock.
	done := make(chan error, 1)
	go func() { done <- l.WaitN(context.Background(), 1<<20) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitN larger than burst deadlocked")
	}
}

// Property: a limiter never admits more than rate*t + burst bytes within a
// window of length t, for any pattern of AllowN calls.
func TestLimiterNeverExceedsRateProperty(t *testing.T) {
	prop := func(reqs []uint16) bool {
		const rate, burst = 1e6, 2048.0
		l, err := NewLimiter(rate, burst)
		if err != nil {
			return false
		}
		start := time.Now()
		var admitted int64
		for _, r := range reqs {
			n := int(r%1500) + 1
			if l.AllowN(n) {
				admitted += int64(n)
			}
		}
		elapsed := time.Since(start).Seconds()
		limit := rate*elapsed + burst + 1
		return float64(admitted) <= limit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestThrottledConnEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// 2 MB/s write limiter; sending 200 KB should take >= ~80 ms.
	lim, err := NewLimiter(2e6, 8192)
	if err != nil {
		t.Fatal(err)
	}

	const total = 200_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 32<<10)
		var got int
		for got < total {
			n, err := c.Read(buf)
			got += n
			if err != nil {
				break
			}
		}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := Throttle(t.Context(), raw, nil, lim)
	defer conn.Close()

	start := time.Now()
	payload := make([]byte, 16<<10)
	sent := 0
	for sent < total {
		n, err := conn.Write(payload)
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	elapsed := time.Since(start)
	wg.Wait()
	if elapsed < 60*time.Millisecond {
		t.Fatalf("200KB at 2MB/s took %v, throttling not effective", elapsed)
	}
}

func TestLinkSharedMediumContention(t *testing.T) {
	// Two writers sharing one direction of a link must together not exceed
	// the link rate.
	link := &Link{Profile: ProfileFastEthernet}
	lim, err := NewLimiter(1e6, 4096)
	if err != nil {
		t.Fatal(err)
	}
	link.AtoB = lim

	const each = 50_000
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = lim.WaitN(context.Background(), each)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 100 KB total at 1 MB/s: >= ~90 ms even shared.
	if elapsed < 60*time.Millisecond {
		t.Fatalf("shared link admitted 100KB in %v, want >= ~96ms", elapsed)
	}
}

func TestNewLinkPanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink with zero bandwidth did not panic")
		}
	}()
	NewLink(Profile{Name: "broken", BandwidthBps: 0})
}
