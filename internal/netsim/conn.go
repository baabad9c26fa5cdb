package netsim

import (
	"context"
	"net"
	"sync"
	"time"
)

// Throttle wraps a net.Conn so that reads and writes are paced by the given
// limiters. Passing the same limiter for several connections models a shared
// link. Either limiter may be nil to leave that direction unthrottled.
//
// ctx bounds every pacing wait for the connection's lifetime: cancelling it
// releases blocked Reads/Writes, so a modelled slow link cannot outlive the
// run that created it (ctxflow: no context roots below cmd/).
func Throttle(ctx context.Context, c net.Conn, read, write *Limiter) net.Conn {
	return &throttledConn{Conn: c, ctx: ctx, read: read, write: write}
}

type throttledConn struct {
	net.Conn
	ctx   context.Context
	read  *Limiter
	write *Limiter
}

func (t *throttledConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 && t.read != nil {
		if werr := t.read.WaitN(t.ctx, n); werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}

func (t *throttledConn) Write(p []byte) (int, error) {
	if t.write != nil {
		if err := t.write.WaitN(t.ctx, len(p)); err != nil {
			return 0, err
		}
	}
	return t.Conn.Write(p)
}

// Delay wraps a conn so every Write is delivered to the underlying conn
// one-way latency later, asynchronously: the writer returns immediately
// and a pump goroutine releases each buffered write at its due time. That
// models propagation delay the way a real link does — back-to-back
// (pipelined) messages overlap the latency, while strict request/response
// traffic pays a full round trip per exchange. Wrap both endpoints (or
// compose with DelayListener) to charge the latency in both directions;
// compose with Throttle to also charge bandwidth.
//
// ctx bounds the pump's lifetime: cancelling it drops undelivered writes
// and fails subsequent ones.
func Delay(ctx context.Context, c net.Conn, oneWay time.Duration) net.Conn {
	if oneWay <= 0 {
		return c
	}
	d := &delayedConn{
		Conn:   c,
		ctx:    ctx,
		oneWay: oneWay,
		now:    time.Now,
		sleep:  time.Sleep,
		q:      make(chan delayedWrite, 1024),
	}
	go d.pump()
	return d
}

type delayedWrite struct {
	data []byte
	due  time.Time
}

type delayedConn struct {
	net.Conn
	ctx    context.Context
	oneWay time.Duration
	now    func() time.Time // test hooks, as in Limiter (simdet)
	sleep  func(time.Duration)
	q      chan delayedWrite

	mu   sync.Mutex
	werr error
}

func (d *delayedConn) Write(p []byte) (int, error) {
	d.mu.Lock()
	werr := d.werr
	d.mu.Unlock()
	if werr != nil {
		return 0, werr
	}
	data := make([]byte, len(p))
	copy(data, p)
	w := delayedWrite{data: data, due: d.now().Add(d.oneWay)}
	select {
	case d.q <- w:
		return len(p), nil
	case <-d.ctx.Done():
		return 0, d.ctx.Err()
	}
}

// pump delivers buffered writes at their due times, in order. A delivery
// failure is latched and surfaced by the next Write; the pump keeps
// draining so writers never wedge on a dead conn.
func (d *delayedConn) pump() {
	for {
		select {
		case <-d.ctx.Done():
			return
		case w := <-d.q:
			if wait := w.due.Sub(d.now()); wait > 0 {
				d.sleep(wait)
			}
			d.mu.Lock()
			werr := d.werr
			d.mu.Unlock()
			if werr != nil {
				continue
			}
			if _, err := d.Conn.Write(w.data); err != nil {
				d.mu.Lock()
				if d.werr == nil {
					d.werr = err
				}
				d.mu.Unlock()
			}
		}
	}
}

// DelayListener wraps a listener so every accepted connection's writes are
// delivered one-way latency later (the server->client direction of a
// modelled link; pair it with Delay on the client side for a full RTT).
func DelayListener(ctx context.Context, l net.Listener, oneWay time.Duration) net.Listener {
	return &delayListener{Listener: l, ctx: ctx, oneWay: oneWay}
}

type delayListener struct {
	net.Listener
	ctx    context.Context
	oneWay time.Duration
}

func (l *delayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Delay(l.ctx, c, l.oneWay), nil
}

// Link is a shared full-duplex medium between two stations, built from one
// limiter per direction at the profile's bandwidth. It is the real-engine
// analogue of the switch port an SD node hangs off.
type Link struct {
	Profile Profile
	// AtoB paces traffic from station A to station B; BtoA the reverse.
	AtoB *Limiter
	BtoA *Limiter
}

// NewLink builds a link for the given profile. Burst is one jumbo window
// (256 KiB) so short messages are not over-delayed.
func NewLink(p Profile) *Link {
	const burst = 256 << 10
	ab, err := NewLimiter(p.BandwidthBps, burst)
	if err != nil {
		panic("netsim: profile has non-positive bandwidth: " + p.Name)
	}
	ba, _ := NewLimiter(p.BandwidthBps, burst)
	return &Link{Profile: p, AtoB: ab, BtoA: ba}
}

// DialThrottled dials the address and throttles the resulting connection as
// station A of the link. ctx bounds the connection's pacing waits.
func (l *Link) DialThrottled(ctx context.Context, network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return Throttle(ctx, c, l.BtoA, l.AtoB), nil
}
