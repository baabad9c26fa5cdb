// Package faultfs is a deterministic fault-injection layer over the
// smartfam.FS share interface: transient per-operation errors, torn
// (partial) appends, injected latency, and crash points. It exists so the
// robustness properties the smartFAM protocol claims — torn-record
// recovery, exactly-once invocation across daemon crashes, transparent
// retry — are exercised by tests in smartfam, nfs, and the top-level
// chaos integration suite rather than asserted on faith.
//
// All knobs are countdown-based and armed explicitly, never random, so a
// failing chaos test replays byte-for-byte.
package faultfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mcsd/internal/smartfam"
)

// Op names the FS operations faults can target.
type Op string

// Fault-injectable operations.
const (
	OpCreate  Op = "create"
	OpAppend  Op = "append"
	OpRead    Op = "read"
	OpStat    Op = "stat"
	OpList    Op = "list"
	OpRemove  Op = "remove"
	OpRename  Op = "rename"
	OpWatch   Op = "watch"
	OpReplace Op = "replace"
)

// ErrInjected is the default error returned by armed transient faults.
var ErrInjected = errors.New("faultfs: injected fault")

// FS wraps an inner smartfam.FS with fault injection. The zero value is
// not usable; call New. Safe for concurrent use.
type FS struct {
	inner smartfam.FS

	mu       sync.Mutex
	failOps  map[Op]int   // op -> remaining injected failures
	failErr  map[Op]error // op -> error to return (ErrInjected default)
	tearNext int          // pending torn appends
	tearKeep float64      // fraction of the append to let through
	latency  time.Duration
	crashOps map[Op]int // op -> countdown until crash hook fires
	onCrash  func()
	injected int64
	torn     int64

	corruptOps   map[Op]int // op -> remaining bit-flips
	corruptMatch string     // substring filter on file names ("" = any)
	corrupted    int64

	onOp func(op Op, name string) error
}

// New wraps inner with an (initially inert) fault layer.
func New(inner smartfam.FS) *FS {
	return &FS{
		inner:      inner,
		failOps:    make(map[Op]int),
		failErr:    make(map[Op]error),
		crashOps:   make(map[Op]int),
		corruptOps: make(map[Op]int),
	}
}

// FailNext arms the next n calls of op to fail with ErrInjected.
func (f *FS) FailNext(op Op, n int) { f.FailNextWith(op, n, ErrInjected) }

// FailNextWith arms the next n calls of op to fail with err.
func (f *FS) FailNextWith(op Op, n int, err error) {
	f.mu.Lock()
	f.failOps[op] = n
	f.failErr[op] = err
	f.mu.Unlock()
}

// TearNext arms the next n appends to be torn: only keep (0 ≤ keep < 1)
// of the data reaches the inner FS — at least one byte, never all of it —
// and the append still reports failure to the caller, like a connection
// that died mid-write. This is the failure the wire format's leading
// newline + CRC exists for.
func (f *FS) TearNext(n int, keep float64) {
	if keep < 0 {
		keep = 0
	}
	if keep >= 1 {
		keep = 0.5
	}
	f.mu.Lock()
	f.tearNext = n
	f.tearKeep = keep
	f.mu.Unlock()
}

// CorruptNext arms the next n calls of op (OpRead or OpAppend) to flip one
// bit in the middle of the data, modelling silent corruption: the
// operation itself still reports success. A corrupted OpRead is transient
// (the bytes at rest stay intact — a bad sector read, a flaky cable); a
// corrupted OpAppend persists flipped bytes to the inner FS — at-rest bit
// rot a scrubber must find. Combine with CorruptMatch to target one file.
func (f *FS) CorruptNext(op Op, n int) {
	f.mu.Lock()
	f.corruptOps[op] = n
	f.mu.Unlock()
}

// CorruptMatch restricts armed corruption to operations whose file name
// contains substr ("" removes the filter). Operations on other names pass
// through without consuming the countdown, so a test can deterministically
// corrupt one replica object while the share's logs stay clean.
func (f *FS) CorruptMatch(substr string) {
	f.mu.Lock()
	f.corruptMatch = substr
	f.mu.Unlock()
}

// Corrupted returns how many operations have had a bit flipped so far.
func (f *FS) Corrupted() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corrupted
}

// corruptArmed consumes one corruption token for (op, name); callers flip
// the bit themselves on a true return.
func (f *FS) corruptArmed(op Op, name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corruptOps[op] <= 0 {
		return false
	}
	if f.corruptMatch != "" && !strings.Contains(name, f.corruptMatch) {
		return false
	}
	f.corruptOps[op]--
	f.corrupted++
	return true
}

// SetLatency injects a fixed delay before every operation (0 disables).
func (f *FS) SetLatency(d time.Duration) {
	f.mu.Lock()
	f.latency = d
	f.mu.Unlock()
}

// CrashAfter arms a crash point: after n more successful calls of op, fn
// runs (once) before the operation returns. Chaos tests use it to cancel
// a daemon's context at an exact protocol step.
func (f *FS) CrashAfter(op Op, n int, fn func()) {
	f.mu.Lock()
	f.crashOps[op] = n
	f.onCrash = fn
	f.mu.Unlock()
}

// OnOp runs fn before every operation and its armed faults (nil removes
// it); an error from fn fails the operation. Tests count operations with
// it, crash at an exact one, or slip another writer's operation in.
func (f *FS) OnOp(fn func(op Op, name string) error) {
	f.mu.Lock()
	f.onOp = fn
	f.mu.Unlock()
}

// Injected returns how many transient errors have been injected so far.
func (f *FS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Torn returns how many appends have been torn so far.
func (f *FS) Torn() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.torn
}

// enter runs the OnOp hook, then applies latency and the transient-failure
// countdown for op on name.
func (f *FS) enter(op Op, name string) error {
	f.mu.Lock()
	hook := f.onOp
	f.mu.Unlock()
	if hook != nil {
		if err := hook(op, name); err != nil {
			return err
		}
	}
	f.mu.Lock()
	delay := f.latency
	var err error
	if f.failOps[op] > 0 {
		f.failOps[op]--
		f.injected++
		err = f.failErr[op]
		if err == nil {
			err = ErrInjected
		}
	}
	f.mu.Unlock()
	if delay > 0 {
		//mcsdlint:allow ctxflow -- the injected latency IS the fault being modelled; tests arm small, bounded delays
		time.Sleep(delay)
	}
	return err
}

// exit fires a pending crash point after a successful op.
func (f *FS) exit(op Op) {
	f.mu.Lock()
	fn := func() {}
	if n, armed := f.crashOps[op]; armed {
		if n > 0 {
			f.crashOps[op] = n - 1
		} else {
			delete(f.crashOps, op)
			if f.onCrash != nil {
				fn = f.onCrash
			}
		}
	}
	f.mu.Unlock()
	fn()
}

// do runs fn as op on name: the armed faults first, and after a success a
// pending crash point.
func (f *FS) do(op Op, name string, fn func() error) error {
	if err := f.enter(op, name); err != nil {
		return err
	}
	err := fn()
	if err == nil {
		f.exit(op)
	}
	return err
}

// Create implements smartfam.FS.
func (f *FS) Create(name string) error {
	return f.do(OpCreate, name, func() error { return f.inner.Create(name) })
}

// Append implements smartfam.FS, honouring armed torn appends.
func (f *FS) Append(name string, data []byte) error {
	return f.do(OpAppend, name, func() error {
		f.mu.Lock()
		tear := f.tearNext > 0 && len(data) > 1
		keep := f.tearKeep
		if tear {
			f.tearNext--
			f.torn++
		}
		f.mu.Unlock()
		if tear {
			n := min(max(int(float64(len(data))*keep), 1), len(data)-1)
			_ = f.inner.Append(name, data[:n])
			return ErrInjected
		}
		if len(data) > 0 && f.corruptArmed(OpAppend, name) {
			// At-rest corruption: one flipped bit lands on the inner FS and
			// the append still reports success, like silent media rot.
			bad := append([]byte(nil), data...)
			bad[len(bad)/2] ^= 0x01
			data = bad
		}
		return f.inner.Append(name, data)
	})
}

// ReadAt implements smartfam.FS.
func (f *FS) ReadAt(name string, p []byte, off int64) (n int, err error) {
	err = f.do(OpRead, name, func() (err error) {
		n, err = f.inner.ReadAt(name, p, off)
		if n > 0 && f.corruptArmed(OpRead, name) {
			// Transient read-side corruption: the caller sees one flipped
			// bit, the bytes at rest stay intact.
			p[n/2] ^= 0x01
		}
		return err
	})
	return n, err
}

// Stat implements smartfam.FS.
func (f *FS) Stat(name string) (int64, time.Time, error) {
	size, mtime, _, err := f.StatGen(name)
	return size, mtime, err
}

// List implements smartfam.FS.
func (f *FS) List() (names []string, err error) {
	err = f.do(OpList, "", func() (err error) {
		names, err = f.inner.List()
		return err
	})
	return names, err
}

// Remove implements smartfam.FS.
func (f *FS) Remove(name string) error {
	return f.do(OpRemove, name, func() error { return f.inner.Remove(name) })
}

// Rename implements smartfam.FS.
func (f *FS) Rename(oldname, newname string) error {
	return f.do(OpRename, oldname, func() error { return f.inner.Rename(oldname, newname) })
}

// Watch implements smartfam.WatchFS by delegating to the inner FS's push
// support: wrapping a push-capable share in the fault layer must not
// silently demote it to polling, or the chaos suite could never kill a
// daemon mid-notify-stream. An inner FS that cannot push reports
// ErrWatchUnsupported, exactly like a legacy transport, so consumers make
// the same permanent fall-back-to-polling decision they would without the
// wrapper. Armed OpWatch faults fail the subscription attempt itself —
// the transient-arm-failure case push consumers must ride out.
func (f *FS) Watch(prefix string) (st smartfam.WatchStream, err error) {
	err = f.do(OpWatch, prefix, func() (err error) {
		wfs, ok := f.inner.(smartfam.WatchFS)
		if !ok {
			return fmt.Errorf("faultfs: %w", smartfam.ErrWatchUnsupported)
		}
		st, err = wfs.Watch(prefix)
		return err
	})
	return st, err
}

// StatGen implements smartfam.GenStat, delegating to the inner FS's
// identity when present and falling back to a plain Stat with identity 0
// (the "not tracked" value) otherwise. Stat goes through it: a stat is a
// stat to the fault model.
func (f *FS) StatGen(name string) (size int64, mtime time.Time, gen uint64, err error) {
	err = f.do(OpStat, name, func() (err error) {
		if gs, ok := f.inner.(smartfam.GenStat); ok {
			size, mtime, gen, err = gs.StatGen(name)
		} else {
			size, mtime, err = f.inner.Stat(name)
		}
		return err
	})
	return size, mtime, gen, err
}

// ReplaceIf implements smartfam.ReplaceFS by delegating to the inner FS,
// and fails where the inner FS cannot replace.
func (f *FS) ReplaceIf(name string, data []byte, size int64) error {
	return f.do(OpReplace, name, func() error {
		rfs, ok := f.inner.(smartfam.ReplaceFS)
		if !ok {
			return fmt.Errorf("faultfs: replace %s: inner share cannot replace", name)
		}
		return rfs.ReplaceIf(name, data, size)
	})
}
