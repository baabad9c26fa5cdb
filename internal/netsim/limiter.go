package netsim

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter measured in bytes per second.
// Tokens accrue continuously up to Burst; WaitN takes n tokens and blocks
// until any deficit they leave is repaid. It is safe for concurrent use,
// which makes one Limiter usable as a shared medium: several connections
// throttled by the same Limiter contend for the same modelled link, the
// way NFS traffic and SMB background traffic shared the testbed's switch.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
	sleep  func(time.Duration)
}

// ErrLimiterRate reports a non-positive rate passed to NewLimiter.
var ErrLimiterRate = errors.New("netsim: limiter rate must be positive")

// NewLimiter returns a limiter that admits rate bytes per second with the
// given burst allowance. A burst below 1 is raised to 1 so progress is
// always possible.
func NewLimiter(rate float64, burst float64) (*Limiter, error) {
	if rate <= 0 {
		return nil, ErrLimiterRate
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{
		rate:   rate,
		burst:  burst,
		tokens: burst,
		now:    time.Now,
		sleep:  time.Sleep,
	}, nil
}

// advance refreshes the token count to the current time. Callers must hold mu.
//
// last is seeded lazily from the FIRST clock reading rather than in
// NewLimiter: seeding it from time.Now there would mix the wall clock into
// a limiter whose now hook a test later replaces, making the first elapsed
// computation span two unrelated timelines (simdet).
func (l *Limiter) advance() {
	now := l.now()
	if l.last.IsZero() {
		l.last = now
	}
	elapsed := now.Sub(l.last).Seconds()
	if elapsed > 0 {
		l.tokens += elapsed * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = now
	}
}

// WaitN blocks until n tokens are paid for or ctx is done. Requests larger
// than the burst are admitted in burst-sized slices, so arbitrarily large
// transfers still pace at the configured rate.
//
// Each slice is paced by debt: it takes its tokens at once, driving the
// bucket negative if need be, and sleeps off only the deficit. Time slept
// past the deficit refills the bucket for the next slice instead of being
// lost to the burst cap, so a run of slices paces at the rate however
// coarse the sleep is. A deficit below minSleep is carried, not slept. A
// slice that would have to sleep on a done ctx hands its tokens back and
// returns ctx.Err().
func (l *Limiter) WaitN(ctx context.Context, n int) error {
	for n > 0 {
		slice := n
		if float64(slice) > l.burst {
			slice = int(l.burst)
		}
		l.mu.Lock()
		l.advance()
		l.tokens -= float64(slice)
		wait := time.Duration(-l.tokens / l.rate * float64(time.Second))
		if wait >= minSleep && ctx.Err() != nil {
			l.tokens += float64(slice)
			l.mu.Unlock()
			return ctx.Err()
		}
		l.mu.Unlock()
		if wait >= minSleep {
			l.sleep(wait)
		}
		n -= slice
	}
	return nil
}

// minSleep is the smallest deficit WaitN sleeps off; a smaller one stays
// on the bucket for the next caller to pay.
const minSleep = 50 * time.Microsecond
