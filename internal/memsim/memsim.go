// Package memsim models node memory for the McSD reproduction.
//
// The paper's central performance effects are memory effects:
//
//   - Native Phoenix "does not support any application whose required data
//     size exceeds approximately 60% of a computing node's memory size"
//     (§IV-B) — the runtime keeps both the input and the emitted
//     intermediate pairs in memory, so the footprint is 2–3x the input, and
//     past physical memory + swap the run dies (the paper's "memory
//     overflow" above 1.5 GB inputs).
//   - Between "fits in RAM" and "overflows swap" lies thrashing: the
//     non-partitioned runs in Figs. 8–9 blow up 6–17x once the footprint
//     exceeds RAM.
//
// Accountant reproduces both: it admits reservations up to RAM+swap and
// fails them beyond (the functional OOM the real engine surfaces), and it
// exposes a thrash Multiplier used by the discrete-event simulator to
// stretch compute time once the footprint spills past usable RAM.
package memsim

import (
	"errors"
	"fmt"
	"sync"
)

// Config describes one node's memory system.
type Config struct {
	// CapacityBytes is physical RAM (Table I: 2 GB per node).
	CapacityBytes int64
	// UsableFraction is the share of RAM available to the application
	// after the OS, file cache floor, and runtime take theirs.
	UsableFraction float64
	// SwapBytes is swap space; reservations beyond usable RAM spill here.
	SwapBytes int64
	// SwapPasses calibrates the additive swap-I/O model used by the
	// discrete-event simulator (SwapSeconds): how many times, on average,
	// each excess byte crosses the backing store over a run. Zero means 10.
	SwapPasses float64
}

// DefaultConfig returns the Table I node memory model: 2 GB RAM, 90%
// usable, 2 GB swap.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:  2 << 30,
		UsableFraction: 0.9,
		SwapBytes:      2 << 30,
	}
}

// Usable returns the bytes of RAM the application can use without paging.
func (c Config) Usable() int64 {
	f := c.UsableFraction
	if f <= 0 || f > 1 {
		f = 0.9
	}
	return int64(float64(c.CapacityBytes) * f)
}

// Limit returns the hard reservation limit (usable RAM + swap).
func (c Config) Limit() int64 { return c.Usable() + c.SwapBytes }

// SwapSeconds models the swap-I/O cost of running with a resident set
// larger than usable RAM against a backing store of the given bandwidth.
// The excess pages are written out and faulted back repeatedly as the
// computation sweeps its data; the pass count grows with the overcommit
// ratio, which makes the penalty quadratic in the excess:
//
//	seconds = passes * excess^2 / (usable * backingBps)
//
// This additive form (rather than a pure multiplier) captures why the
// paper's host-only runs — swapping against a disk busy with NFS service —
// blow up so much harder than the SD-local runs (Fig. 9).
func (c Config) SwapSeconds(resident int64, backingBps float64) float64 {
	usable := c.Usable()
	excess := resident - usable
	if excess <= 0 || usable <= 0 || backingBps <= 0 {
		return 0
	}
	passes := c.SwapPasses
	if passes <= 0 {
		passes = 10
	}
	e := float64(excess)
	return passes * e * e / (float64(usable) * backingBps)
}

// ErrOutOfMemory reports a reservation that exceeds RAM+swap — the
// "memory overflow" that kills native Phoenix above 1.5 GB inputs.
var ErrOutOfMemory = errors.New("memsim: out of memory (exceeds RAM+swap)")

// Accountant tracks live reservations against a Config. The zero value is
// unusable; call NewAccountant. Safe for concurrent use.
type Accountant struct {
	cfg  Config
	mu   sync.Mutex
	used int64
	peak int64
}

// NewAccountant returns an accountant for the given memory configuration.
func NewAccountant(cfg Config) *Accountant {
	return &Accountant{cfg: cfg}
}

// Config returns the memory configuration.
func (a *Accountant) Config() Config { return a.cfg }

// Reserve admits n bytes or fails with ErrOutOfMemory, leaving usage
// unchanged on failure. Negative n is rejected.
func (a *Accountant) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("memsim: negative reservation %d", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used+n > a.cfg.Limit() {
		return fmt.Errorf("%w: used %d + request %d > limit %d",
			ErrOutOfMemory, a.used, n, a.cfg.Limit())
	}
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	return nil
}

// Release returns n bytes. Releasing more than is reserved clamps to zero
// rather than going negative (an invariant checked by tests).
func (a *Accountant) Release(n int64) {
	if n < 0 {
		return
	}
	a.mu.Lock()
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
	a.mu.Unlock()
}

// Footprint returns the live reservation in bytes.
//
//mcsdlint:allow deadexport -- seam: the mapreduce and partition memory-budget tests read the live footprint
func (a *Accountant) Footprint() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Peak returns the high-water mark of the reservation.
//
//mcsdlint:allow deadexport -- seam: the mapreduce, partition and workloads memory-budget tests assert the high-water mark
func (a *Accountant) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Reset clears usage and the peak.
func (a *Accountant) Reset() {
	a.mu.Lock()
	a.used, a.peak = 0, 0
	a.mu.Unlock()
}

// Reservation is a convenience handle that releases exactly what it
// reserved, once.
type Reservation struct {
	a    *Accountant
	n    int64
	once sync.Once
}

// ReserveHandle reserves n bytes and returns a handle whose Release is
// idempotent.
func (a *Accountant) ReserveHandle(n int64) (*Reservation, error) {
	if err := a.Reserve(n); err != nil {
		return nil, err
	}
	return &Reservation{a: a, n: n}, nil
}

// Release frees the reservation; extra calls are no-ops.
func (r *Reservation) Release() {
	r.once.Do(func() { r.a.Release(r.n) })
}
