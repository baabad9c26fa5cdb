package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
	"mcsd/internal/smartfam"
)

// The timing decorators wrap the public interfaces the benchmark hands to
// each layer, so a traced run measures the layers from outside without a
// line of the program changing. Each must be capability-transparent: the
// program type-asserts optional interfaces on what it is given (push
// watches on the share, range opens on the data store), and a wrapper
// that hid one would silently benchmark the fallback path instead.

// timedFS decorates the host's view of a share. It forwards Watch and
// StatGen — the two optional capabilities smartfam.Client and
// smartfam.Daemon assert — exactly as faultfs does, so the push front
// door stays on. Call counts are kept traced or not; they cost one
// atomic add.
type timedFS struct {
	inner smartfam.FS
	tr    *tracer
	calls atomic.Int64 // every share RPC the host issued
	stats atomic.Int64 // the Stat/StatGen calls among them
}

func (f *timedFS) Create(name string) error {
	f.calls.Add(1)
	return f.inner.Create(name)
}

// Append times the RPC and, for request appends to a module log, notes
// which requests this one call carried: group commit folds many into one
// Append, and each of them waited for exactly this call.
func (f *timedFS) Append(name string, data []byte) error {
	f.calls.Add(1)
	if !f.tr.on.Load() {
		return f.inner.Append(name, data)
	}
	start := time.Now()
	err := f.inner.Append(name, data)
	end := time.Now()
	recs, _, _, _ := smartfam.ParseRecords(data) // a non-log append parses to nothing
	t := f.tr
	t.mu.Lock()
	t.addLocked(int(t.curOp.Load()), spanAppend, start, end, int(t.opIdx.Load()), "")
	for _, r := range recs {
		if r.Kind == smartfam.KindRequest {
			t.appends[payloadKey(r.Payload)] = start
		}
	}
	t.mu.Unlock()
	return err
}

func (f *timedFS) ReadAt(name string, p []byte, off int64) (int, error) {
	f.calls.Add(1)
	if !f.tr.on.Load() {
		return f.inner.ReadAt(name, p, off)
	}
	start := time.Now()
	n, err := f.inner.ReadAt(name, p, off)
	f.tr.add(int(f.tr.curOp.Load()), spanReadAt, start, time.Now(), int(f.tr.opIdx.Load()), "")
	return n, err
}

func (f *timedFS) Stat(name string) (int64, time.Time, error) {
	f.calls.Add(1)
	f.stats.Add(1)
	return f.inner.Stat(name)
}

func (f *timedFS) List() ([]string, error) {
	f.calls.Add(1)
	return f.inner.List()
}

func (f *timedFS) Remove(name string) error {
	f.calls.Add(1)
	return f.inner.Remove(name)
}

func (f *timedFS) Rename(oldname, newname string) error {
	f.calls.Add(1)
	return f.inner.Rename(oldname, newname)
}

// Watch implements smartfam.WatchFS by delegation; an inner share that
// cannot push reports ErrWatchUnsupported, so consumers make the same
// permanent fall-back decision they would without the wrapper.
func (f *timedFS) Watch(prefix string) (smartfam.WatchStream, error) {
	f.calls.Add(1)
	wfs, ok := f.inner.(smartfam.WatchFS)
	if !ok {
		return nil, fmt.Errorf("perfbench: %w", smartfam.ErrWatchUnsupported)
	}
	return wfs.Watch(prefix)
}

// StatGen implements smartfam.GenStat by delegation, with generation 0
// ("not tracked") over a share that keeps none.
func (f *timedFS) StatGen(name string) (int64, time.Time, uint64, error) {
	f.calls.Add(1)
	f.stats.Add(1)
	if gs, ok := f.inner.(smartfam.GenStat); ok {
		return gs.StatGen(name)
	}
	size, mtime, err := f.inner.Stat(name)
	return size, mtime, 0, err
}

// timedModule decorates a registered module: it records module.run and
// files the span under the request's payload hash, which is how the host
// side finds the run that belongs to an operation.
type timedModule struct {
	inner smartfam.Module
	tr    *tracer
	node  string
}

func (m *timedModule) Name() string { return m.inner.Name() }

func (m *timedModule) Run(ctx context.Context, params []byte) ([]byte, error) {
	t := m.tr
	if !t.on.Load() {
		return m.inner.Run(ctx, params)
	}
	// The span is opened before the module runs so store reads can name it
	// as their parent, and closed in place afterwards.
	start := time.Now()
	t.mu.Lock()
	idx := t.addLocked(int(t.curOp.Load()), spanModuleRun, start, start, -1, m.node)
	t.spans[idx].Note = m.inner.Name()
	t.runs[payloadKey(params)] = idx
	t.active[m.node] = append(t.active[m.node], idx)
	t.mu.Unlock()

	out, err := m.inner.Run(ctx, params)

	end := time.Now()
	t.mu.Lock()
	t.spans[idx].EndNs = t.ns(end)
	t.bytes["result"] += int64(len(out))
	act := t.active[m.node]
	for i, a := range act {
		if a == idx {
			t.active[m.node] = append(act[:i:i], act[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	return out, err
}

// timedStore decorates a module's data store. It forwards the optional
// range-open interfaces through core.OpenAt/OpenRange, which reach the
// inner store's own support when it has any, so the fleet's bounded
// range scan is not demoted to a read from byte zero.
type timedStore struct {
	inner core.DataStore
	tr    *tracer
	node  string
}

func (s *timedStore) Size(name string) (int64, error) { return s.inner.Size(name) }

func (s *timedStore) Open(name string) (io.ReadCloser, error) {
	return s.wrap(s.inner.Open(name))
}

func (s *timedStore) OpenAt(name string, off int64) (io.ReadCloser, error) {
	return s.wrap(core.OpenAt(s.inner, name, off))
}

func (s *timedStore) OpenRange(name string, off, length int64) (io.ReadCloser, error) {
	return s.wrap(core.OpenRange(s.inner, name, off, length))
}

// wrap times the reader's Reads under the module.run in progress on this
// node. With two runs side by side on one node (fleet_wc's window of
// two) the parent is ambiguous from here and the read hangs off neither.
func (s *timedStore) wrap(r io.ReadCloser, err error) (io.ReadCloser, error) {
	if err != nil || !s.tr.on.Load() {
		return r, err
	}
	parent := -1
	s.tr.mu.Lock()
	if act := s.tr.active[s.node]; len(act) == 1 {
		parent = act[0]
	}
	s.tr.mu.Unlock()
	return &timedReader{inner: r, tr: s.tr, name: spanStoreWait, parent: parent, lane: s.node}, nil
}

// timedReader records one span per Read: the time the consumer spent
// blocked on the layer below, and the bytes that wait bought.
type timedReader struct {
	inner  io.ReadCloser
	tr     *tracer
	name   string
	parent int
	lane   string
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.inner.Read(p)
	t := r.tr
	t.mu.Lock()
	t.addLocked(int(t.curOp.Load()), r.name, start, time.Now(), r.parent, r.lane)
	t.bytes[r.name] += int64(n)
	t.mu.Unlock()
	return n, err
}

func (r *timedReader) Close() error { return r.inner.Close() }

// timedSession decorates one node's fleet.Session: each InvokeID is an
// attempt lane of the current job. Probe is forwarded because the
// coordinator asserts fleet.Prober to mark a failed node back up.
type timedSession struct {
	inner *smartfam.Client
	tr    *tracer
	node  string
}

// Every optional interface the program asserts on what the benchmark
// hands it, pinned at compile time.
var (
	_ smartfam.WatchFS     = (*timedFS)(nil)
	_ smartfam.GenStat     = (*timedFS)(nil)
	_ core.RangeOpener     = (*timedStore)(nil)
	_ core.RangeScanOpener = (*timedStore)(nil)
	_ fleet.Session        = (*timedSession)(nil)
	_ fleet.Prober         = (*timedSession)(nil)
)

func (s *timedSession) InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error) {
	if !s.tr.on.Load() {
		return s.inner.InvokeID(ctx, module, id, params)
	}
	start := time.Now()
	out, err := s.inner.InvokeID(ctx, module, id, params)
	end := time.Now()
	t := s.tr
	op, job := int(t.curOp.Load()), int(t.opIdx.Load())
	attempt := t.add(op, spanAttempt, start, end, job, s.node)
	if err == nil {
		t.tileInvocation(op, attempt, start, end, params)
	}
	return out, err
}

func (s *timedSession) Probe(ctx context.Context) error { return s.inner.Probe(ctx) }
