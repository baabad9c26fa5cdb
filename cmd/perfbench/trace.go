package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The benchmark keeps its own recorder instead of
// internal/trace because that package's span names are a lint-checked
// registry outside this directory; these spans are taken only at the
// boundaries the benchmark itself can see — the public interfaces it
// hands to each layer.
const (
	spanOp           = "op"                     // one measured operation, client-observed
	spanBatchWait    = "smartfam.batch_wait"    // invocation began -> its carrying Append entered the share
	spanDispatchWait = "smartfam.dispatch_wait" // carrying Append entered -> module Run entered
	spanModuleRun    = "module.run"             // decorated module Run
	spanResponseWait = "smartfam.response_wait" // module Run returned -> invocation returned
	spanAppend       = "nfs.append"             // host share Append RPC
	spanReadAt       = "nfs.readat"             // host share ReadAt RPC
	spanStreamWait   = "nfs.stream_read_wait"   // one Read of the OpenReader stream
	spanStoreWait    = "store.read_wait"        // one Read of a module's data-store reader
	spanAttempt      = "fleet.attempt"          // one Session.InvokeID, lane = node
	spanGatherTail   = "fleet.gather_tail"      // last attempt returned -> WordCount returned
)

// span is one recorded interval. Times are nanoseconds on the process's
// monotonic clock since the recorder was made; Parent indexes the span
// that caused this one (-1 for a root); Lane names the node for spans
// that run side by side; Note names the module on module.run spans.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Lane    string `json:"lane,omitempty"`
	Note    string `json:"note,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tile is one invocation cut into the four intervals that share their
// boundaries on one clock — began, carrying Append entered the share,
// module Run entered, Run returned, invocation returned — and therefore
// sum to the client-observed latency exactly.
type tile struct{ batchMs, dispatchMs, responseMs float64 } // module.run is its own span

func (t tile) frontdoorMs() float64 { return t.batchMs + t.dispatchMs + t.responseMs }

// tracer is the state the timing decorators share for one traced run:
// the span list, the closed-loop workloads' current operation, and the
// two join tables that tie a request's carrying Append and its module
// Run back to the invocation that caused them. Requests are joined by a
// hash of their parameter payload: it is the one value that crosses
// every layer unchanged, so nothing inside the program has to carry an
// identifier for the benchmark's sake.
//
// The decorators stay installed for the whole traced run; on gates the
// timing, so the same objects give the untraced reference phase that
// loadgen.trace_overhead_ratio is measured against.
type tracer struct {
	on    atomic.Bool
	curOp atomic.Int64 // the closed loops' operation in progress; -1 in the open loop
	opIdx atomic.Int64 // its root span, the parent of what it causes
	t0    time.Time

	mu         sync.Mutex
	spans      []span
	appends    map[uint64]time.Time // request payload hash -> when its carrying Append entered the share
	runs       map[uint64]int       // request payload hash -> its module.run span
	active     map[string][]int     // node -> module.run spans in progress there
	bytes      map[string]int64     // reader span name -> payload bytes delivered; "result" -> module output bytes
	tiles      []tile
	violations int // invocations whose boundaries were missing or out of order
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.reset()
	return t
}

// reset drops everything recorded so far; the harness calls it before
// measuring a phase again. Nothing may be in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.tiles, t.violations = nil, nil, 0
	t.appends = make(map[uint64]time.Time)
	t.runs = make(map[uint64]int)
	t.active = make(map[string][]int)
	t.bytes = make(map[string]int64)
	// Until a closed loop begins an operation, spans belong to none: the
	// open loop's share RPCs are batched across operations.
	t.curOp.Store(-1)
	t.opIdx.Store(-1)
}

// tracing reports whether spans are being recorded; false on the nil
// tracer of an untraced run.
func (t *tracer) tracing() bool { return t != nil && t.on.Load() }

func payloadKey(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its index.
func (t *tracer) add(op int, name string, start, end time.Time, parent int, lane string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(op, name, start, end, parent, lane)
}

func (t *tracer) addLocked(op int, name string, start, end time.Time, parent int, lane string) int {
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Lane: lane, StartNs: t.ns(start), EndNs: t.ns(end)})
	return len(t.spans) - 1
}

// beginOp opens the root span of closed-loop operation op, so what it
// causes can name it as parent; endOp closes it.
func (t *tracer) beginOp(op int, start time.Time) {
	t.curOp.Store(int64(op))
	t.mu.Lock()
	t.opIdx.Store(int64(t.addLocked(op, spanOp, start, start, -1, "")))
	t.mu.Unlock()
}

func (t *tracer) endOp(end time.Time) {
	t.mu.Lock()
	t.spans[t.opIdx.Load()].EndNs = t.ns(end)
	t.mu.Unlock()
}

// tileInvocation cuts the invocation [start, end] of the request with
// parameters params into its four intervals, as children of span parent,
// and adopts the request's module.run span into the same family. An
// invocation whose boundaries were not all seen, or not in order, is
// counted as a violation instead.
func (t *tracer) tileInvocation(op, parent int, start, end time.Time, params []byte) {
	key := payloadKey(params)
	t.mu.Lock()
	defer t.mu.Unlock()
	appended, haveApp := t.appends[key]
	run, haveRun := t.runs[key]
	if !haveApp || !haveRun {
		t.violations++
		return
	}
	s, a, e := t.ns(start), t.ns(appended), t.ns(end)
	rs, re := t.spans[run].StartNs, t.spans[run].EndNs
	if a < s || rs < a || re < rs || e < re {
		t.violations++
		return
	}
	t.spans[run].Op, t.spans[run].Parent = op, parent
	t.spans = append(t.spans,
		span{Op: op, Name: spanBatchWait, StartNs: s, EndNs: a, Parent: parent},
		span{Op: op, Name: spanDispatchWait, StartNs: a, EndNs: rs, Parent: parent},
		span{Op: op, Name: spanResponseWait, StartNs: re, EndNs: e, Parent: parent})
	t.tiles = append(t.tiles, tile{
		batchMs: float64(a-s) / 1e6, dispatchMs: float64(rs-a) / 1e6, responseMs: float64(e-re) / 1e6,
	})
}

// durations returns the millisecond durations of every span called name
// (and, when note is not empty, carrying that note).
func (t *tracer) durations(name, note string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (note == "" || s.Note == note) {
			out = append(out, s.ms())
		}
	}
	return out
}

// perOp groups the spans called name by operation and folds each group's
// millisecond durations with f; operations without such a span are left
// out. The result is in operation order.
func (t *tracer) perOp(name string, f func([]float64) float64) []float64 {
	t.mu.Lock()
	byOp := make(map[int][]float64)
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] = append(byOp[s.Op], s.ms())
		}
	}
	t.mu.Unlock()
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(byOp[op])
	}
	return out
}

func (t *tracer) tileParts(part func(tile) float64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.tiles))
	for i, tl := range t.tiles {
		out[i] = part(tl)
	}
	return out
}

func (t *tracer) byteCount(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.bytes[name])
}

// writeFile dumps the span list as JSON. A span's self time is its
// duration minus what the spans naming it as parent cover.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
