// Package metrics provides lightweight counters, timers, and the tabular
// reporters used by the McSD benchmark harness to print paper-style rows
// and series.
//
// All types are safe for concurrent use unless noted otherwise.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (or decreasing) 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge holds an instantaneous 64-bit value and tracks its high-water mark.
type Gauge struct {
	mu   sync.Mutex
	v    int64
	peak int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	g.mu.Lock()
	g.v = v
	if v > g.peak {
		g.peak = v
	}
	g.mu.Unlock()
}

// Add adjusts the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 {
	g.mu.Lock()
	g.v += delta
	if g.v > g.peak {
		g.peak = g.v
	}
	v := g.v
	g.mu.Unlock()
	return v
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Peak returns the highest value the gauge has held since creation or the
// last Reset.
//
//mcsdlint:allow deadexport -- seam: the nfs pipeline and push tests assert a gauge high-water mark
func (g *Gauge) Peak() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Reset zeroes both the value and the peak.
func (g *Gauge) Reset() {
	g.mu.Lock()
	g.v, g.peak = 0, 0
	g.mu.Unlock()
}

// Timer accumulates durations of repeated events and exposes count, total,
// mean and max.
type Timer struct {
	mu    sync.Mutex
	n     int64
	total time.Duration
	max   time.Duration
}

// Observe records one event duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	if d > t.max {
		t.max = d
	}
	t.n++
	t.total += d
	t.mu.Unlock()
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Total returns the sum of all observed durations.
func (t *Timer) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Mean returns the average observed duration, or zero with no observations.
func (t *Timer) Mean() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return 0
	}
	return t.total / time.Duration(t.n)
}

// Max returns the longest observation.
func (t *Timer) Max() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.max
}

// Registry is a named collection of counters, gauges and timers. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer with the given name, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Values returns the current value of every counter and gauge by name,
// the form a published status snapshot carries. Timers are left out.
func (r *Registry) Values() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}
