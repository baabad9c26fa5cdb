package netsim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLimiterInjectedClockOnly pins the fix for a mixed-clock bug: NewLimiter
// used to seed `last` from time.Now, so a limiter whose `now` hook a test
// replaces computed its first elapsed interval across two unrelated
// timelines. With a fake clock whose epoch is far in the wall clock's past,
// elapsed came out negative forever and the bucket never refilled. `last`
// must instead be seeded lazily from the first reading of the injected
// clock.
func TestLimiterInjectedClockOnly(t *testing.T) {
	l, err := NewLimiter(100, 100) // 100 B/s, burst 100
	if err != nil {
		t.Fatal(err)
	}
	// Fake timeline rooted decades before the real wall clock.
	fake := time.Unix(1_000_000_000, 0)
	l.now = func() time.Time { return fake }

	if !l.AllowN(100) {
		t.Fatal("initial burst not available")
	}
	if l.AllowN(1) {
		t.Fatal("bucket should be empty after consuming the burst")
	}

	// One fake second at 100 B/s refills exactly 100 tokens — no more, no
	// less — regardless of what the wall clock did meanwhile.
	fake = fake.Add(1 * time.Second)
	if !l.AllowN(100) {
		t.Fatal("bucket did not refill on the injected timeline")
	}
	if l.AllowN(1) {
		t.Fatal("bucket refilled beyond the injected elapsed time")
	}
}

// TestLimiterOversleepIsNotLost pins WaitN's debt pacing. Every sleep on
// the fake clock overshoots by 1 ms, as a real timer does. A limiter that
// waits for a full bucket per burst-sized slice loses that overshoot to the
// burst cap on every slice: 1 MB in 10 KB or 100 KB calls then takes ~10 %
// longer than 1 MB/s allows. Paced by debt, the overshoot refills the
// bucket for the next slice, and only the last one is lost.
func TestLimiterOversleepIsNotLost(t *testing.T) {
	const (
		rate  = 1e6    // 1 MB/s
		burst = 10_000 // 10 ms of transfer
		total = 1_000_000
	)
	// The first burst is free; the rest must take (total-burst)/rate.
	ideal := time.Duration(float64(total-burst) / rate * float64(time.Second))
	for _, call := range []int{1_000, burst, 100_000, total} {
		l, err := NewLimiter(rate, burst)
		if err != nil {
			t.Fatal(err)
		}
		fake := time.Unix(1_000_000_000, 0)
		start := fake
		l.now = func() time.Time { return fake }
		l.sleep = func(d time.Duration) { fake = fake.Add(d + time.Millisecond) }
		for sent := 0; sent < total; sent += call {
			if err := l.WaitN(context.Background(), call); err != nil {
				t.Fatal(err)
			}
		}
		if took := fake.Sub(start); took < ideal || took > ideal+2*time.Millisecond {
			t.Errorf("%d B in %d B calls took %v on the fake clock, want %v (+ one oversleep)",
				total, call, took, ideal)
		}
	}
}

// TestLimiterCancelledWaitKeepsTokens checks that a slice which would have
// to sleep on a done context returns its error without spending tokens.
func TestLimiterCancelledWaitKeepsTokens(t *testing.T) {
	l, err := NewLimiter(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	fake := time.Unix(1_000_000_000, 0)
	l.now = func() time.Time { return fake }
	l.sleep = func(time.Duration) { t.Fatal("slept on a cancelled context") }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.WaitN(ctx, 60); err != nil {
		t.Fatalf("slice within the bucket failed: %v", err)
	}
	if err := l.WaitN(ctx, 60); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitN past the bucket on a cancelled ctx = %v, want context.Canceled", err)
	}
	if !l.AllowN(40) || l.AllowN(1) {
		t.Fatal("cancelled WaitN spent tokens")
	}
}
