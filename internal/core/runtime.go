package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
	"mcsd/internal/trace"
)

// Runtime is the host-side McSD runtime: it tracks attached smart-storage
// nodes, offloads data-intensive module invocations to them over smartFAM,
// balances load across nodes, overlaps the host's computation-intensive
// work, and fails over when a node dies (§IV plus the parallelism and
// fault-tolerance extensions of §VI).
type Runtime struct {
	pollInterval   time.Duration
	attemptTimeout time.Duration
	hbStaleness    time.Duration
	metrics        *metrics.Registry
	tracer         *trace.Tracer
	sched          *sched.Scheduler

	invokeBatch bool
	batchBytes  int
	batchDelay  time.Duration

	mu    sync.Mutex
	sds   []*sdHandle
	local map[string]smartfam.Module
}

type sdHandle struct {
	name     string
	share    smartfam.FS
	client   *smartfam.Client
	inflight atomic.Int64
	healthy  atomic.Bool
	hbStamp  atomic.Int64 // last heartbeat stamp pick read (UnixNano; 0 = none)
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithPollInterval sets how often the runtime polls the share for module
// responses.
func WithPollInterval(d time.Duration) Option {
	return func(r *Runtime) {
		if d > 0 {
			r.pollInterval = d
		}
	}
}

// WithAttemptTimeout bounds each offload attempt; on expiry the runtime
// fails over to the next node. Zero disables per-attempt timeouts.
func WithAttemptTimeout(d time.Duration) Option {
	return func(r *Runtime) { r.attemptTimeout = d }
}

// WithMetrics attaches a metrics registry.
func WithMetrics(m *metrics.Registry) Option {
	return func(r *Runtime) { r.metrics = m }
}

// WithTracer records a span tree per job (offload leg, host-side leg,
// per-node attempts), renderable with trace.Render — it makes the
// framework's host/SD overlap visible.
func WithTracer(tr *trace.Tracer) Option {
	return func(r *Runtime) { r.tracer = tr }
}

// WithScheduler routes offloaded jobs through a job scheduler: submission
// order, tenant fairness, priorities, memory-aware admission, and queue
// backpressure all apply before any node is dialled. The caller drives
// the scheduler's Run loop. A full queue surfaces as sched.ErrQueueFull
// from Run/Invoke.
func WithScheduler(s *sched.Scheduler) Option {
	return func(r *Runtime) { r.sched = s }
}

// WithInvokeBatching enables host-side group commit (fam v2) on every
// node attached afterwards: concurrent invocations of one module coalesce
// their request records into a single share append per batch window.
// Bounds <= 0 select smartfam's defaults. Exactly-once semantics are
// unchanged — batching only alters how records reach the share.
func WithInvokeBatching(maxBytes int, maxDelay time.Duration) Option {
	return func(r *Runtime) {
		r.invokeBatch = true
		r.batchBytes, r.batchDelay = maxBytes, maxDelay
	}
}

// WithHeartbeatStaleness sets how old a node's liveness stamp may be
// before the runtime stops dispatching to it (nodes without a heartbeat
// file are never skipped — they fall back to timeout detection). Zero
// disables heartbeat checks.
func WithHeartbeatStaleness(d time.Duration) Option {
	return func(r *Runtime) { r.hbStaleness = d }
}

// New returns an empty runtime; attach SD nodes with AttachSD.
func New(opts ...Option) *Runtime {
	r := &Runtime{
		pollInterval: smartfam.DefaultPollInterval,
		hbStaleness:  8 * smartfam.DefaultHeartbeatInterval,
		metrics:      metrics.NewRegistry(),
		local:        make(map[string]smartfam.Module),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Metrics returns the runtime's metrics registry.
func (r *Runtime) Metrics() *metrics.Registry { return r.metrics }

// AttachSD registers a smart-storage node by the share through which it is
// reached (an nfs.Client for a remote node, a smartfam DirFS for a
// co-located one).
func (r *Runtime) AttachSD(name string, share smartfam.FS) {
	h := &sdHandle{name: name, share: share, client: smartfam.NewClient(share, r.pollInterval)}
	h.client.SetMetrics(r.metrics)
	if r.invokeBatch {
		h.client.SetBatching(r.batchBytes, r.batchDelay)
	}
	h.healthy.Store(true)
	r.mu.Lock()
	r.sds = append(r.sds, h)
	r.mu.Unlock()
}

// RegisterLocalFallback registers a module the host itself can execute
// when no SD node can — the host-only degraded mode. The module should
// read data through a RemoteDataStore so the fallback pays the data-movement
// cost it actually incurs.
func (r *Runtime) RegisterLocalFallback(m smartfam.Module) {
	r.mu.Lock()
	r.local[m.Name()] = m
	r.mu.Unlock()
}

// SDNames lists attached nodes in attachment order.
func (r *Runtime) SDNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.sds))
	for i, h := range r.sds {
		names[i] = h.name
	}
	return names
}

// Job is one McSD computation: a data-intensive module invocation that the
// runtime offloads, plus an optional host-side computation-intensive
// function that runs concurrently (the framework's load balancing between
// computing and storage nodes).
type Job struct {
	// Module is the data-intensive module to invoke.
	Module string
	// Params is JSON-encoded and passed through the module's log file.
	Params any
	// Local optionally runs on the host, overlapping the offload.
	Local func(ctx context.Context) error

	// The remaining fields only matter when the runtime has a scheduler
	// attached (WithScheduler); without one they are ignored.

	// Tenant groups jobs for the scheduler's fair ordering.
	Tenant string
	// Priority overrides fair ordering (higher dispatches first).
	Priority int
	// InputBytes and FootprintFactor size the job for memory-aware
	// admission (see sched.Job).
	InputBytes      int64
	FootprintFactor float64
}

// Result reports one completed job.
type Result struct {
	// Payload is the module's result payload (Decode into the module's
	// output type).
	Payload []byte
	// SD names the node that served the invocation; empty for a local
	// fallback run.
	SD string
	// Offloaded reports whether a smart-storage node served the job.
	Offloaded bool
	// Attempts counts offload attempts, including the successful one.
	Attempts int
	// Elapsed is end-to-end job time (max of offload and Local).
	Elapsed time.Duration
}

// Errors returned by Run/Invoke.
var (
	ErrNoExecutor = errors.New("core: no SD node or local fallback can run module")
)

// Run executes a job: the module invocation is dispatched to the
// least-loaded healthy SD node (failing over on node errors, falling back
// to a registered local module when every node is out), while Job.Local
// runs concurrently on the host. Run returns when both halves finish.
func (r *Runtime) Run(ctx context.Context, job Job) (*Result, error) {
	params, err := encode(job.Params)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	jobSpan := r.tracer.Start(trace.SpanJobPrefix + job.Module)
	defer jobSpan.Finish()

	var localErr error
	localDone := make(chan struct{})
	if job.Local != nil {
		localSpan := jobSpan.Child(trace.SpanHostLocal)
		go func() {
			defer close(localDone)
			defer localSpan.Finish()
			localErr = job.Local(ctx)
		}()
	} else {
		close(localDone)
	}

	offSpan := jobSpan.Child(trace.SpanOffload)
	res, offErr := r.dispatch(ctx, job, params, offSpan)
	offSpan.Finish()
	<-localDone
	if offErr != nil {
		return nil, offErr
	}
	if localErr != nil {
		return nil, fmt.Errorf("core: host-side function: %w", localErr)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Invoke runs a module with no host-side part.
func (r *Runtime) Invoke(ctx context.Context, module string, params any) (*Result, error) {
	return r.Run(ctx, Job{Module: module, Params: params})
}

// dispatch routes the offload leg directly to invoke, or through the
// attached scheduler — the job waits in the queue (spans record the
// delay) until admission control clears it, then the scheduler's worker
// executes the node-selection/failover path as usual.
func (r *Runtime) dispatch(ctx context.Context, job Job, params []byte, span *trace.Span) (*Result, error) {
	// One correlation ID per job, shared by every attempt — failovers,
	// scheduler retries, reconnected transports. The ID is smartFAM's
	// idempotency key: a daemon that already completed the work replays
	// its journaled response instead of executing the module again.
	reqID := smartfam.NewID()
	if r.sched == nil {
		return r.invoke(ctx, job.Module, reqID, params, span)
	}
	var res *Result
	h, err := r.sched.Submit(ctx, &sched.Job{
		Tenant:          job.Tenant,
		Module:          job.Module,
		Priority:        job.Priority,
		InputBytes:      job.InputBytes,
		FootprintFactor: job.FootprintFactor,
		Exec: func(execCtx context.Context, _ *sched.Job) ([]byte, error) {
			rr, err := r.invoke(execCtx, job.Module, reqID, params, span)
			if err != nil {
				return nil, err
			}
			res = rr
			return rr.Payload, nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: offload of %q rejected: %w", job.Module, err)
	}
	if _, err := h.Wait(ctx); err != nil {
		return nil, err
	}
	return res, nil
}

// invoke picks nodes and handles failover. Every attempt reuses reqID so
// retries are idempotent at the daemon.
func (r *Runtime) invoke(ctx context.Context, module, reqID string, params []byte, span *trace.Span) (*Result, error) {
	res := &Result{}
	tried := make(map[*sdHandle]bool)
	var lastErr error
	for {
		h := r.pick(tried)
		if h == nil {
			break
		}
		tried[h] = true
		res.Attempts++
		attemptSpan := span.Child(trace.SpanAttemptPrefix + h.name)
		payload, err := r.attempt(ctx, h, module, reqID, params)
		attemptSpan.Finish()
		if err == nil {
			res.Payload = payload
			res.SD = h.name
			res.Offloaded = true
			r.metrics.Counter(metrics.CoreOffloads).Inc()
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var merr *smartfam.ModuleError
		if errors.As(err, &merr) {
			if sched.IsQueueFullMessage(merr.Msg) {
				// The node's scheduler shed the request. Re-type the wire
				// message so callers (mcsdctl, retry loops) can match
				// sched.ErrQueueFull; like other application-level
				// results it does not fail the node over.
				r.metrics.Counter(metrics.CoreQueueFullRejects).Inc()
				return nil, fmt.Errorf("core: node %s: %w", h.name, sched.ErrQueueFull)
			}
			// Application-level failure: deterministic, do not fail over.
			return nil, err
		}
		if errors.Is(err, smartfam.ErrUnknownModule) {
			// This node does not host the module; try the next.
			lastErr = err
			continue
		}
		// Transport failure or timeout: mark unhealthy, fail over (§VI:
		// "a mechanism in McSD to support fault tolerance").
		h.healthy.Store(false)
		r.metrics.Counter(metrics.CoreFailovers).Inc()
		lastErr = err
	}

	// Local fallback.
	r.mu.Lock()
	m, ok := r.local[module]
	r.mu.Unlock()
	if ok {
		res.Attempts++
		fbSpan := span.Child(trace.SpanLocalFallback)
		payload, err := m.Run(ctx, params)
		fbSpan.Finish()
		if err != nil {
			return nil, fmt.Errorf("core: local fallback for %q: %w", module, err)
		}
		res.Payload = payload
		r.metrics.Counter(metrics.CoreLocalFallbacks).Inc()
		return res, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %q: last error: %v", ErrNoExecutor, module, lastErr)
	}
	return nil, fmt.Errorf("%w: %q", ErrNoExecutor, module)
}

// attempt performs one invocation against one node, with the per-attempt
// timeout.
func (r *Runtime) attempt(ctx context.Context, h *sdHandle, module, reqID string, params []byte) ([]byte, error) {
	if r.attemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.attemptTimeout)
		defer cancel()
	}
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	timer := r.metrics.Timer(metrics.CoreInvokePrefix + module)
	start := time.Now()
	payload, err := h.client.InvokeID(ctx, module, reqID, params)
	timer.Observe(time.Since(start))
	return payload, err
}

// pick returns the least-loaded healthy untried node, or nil. A node whose
// heartbeat stamp has gone stale is passed over (and counted) without
// burning an invocation timeout on it; nodes that never stamped one are
// given the benefit of the doubt.
func (r *Runtime) pick(tried map[*sdHandle]bool) *sdHandle {
	r.mu.Lock()
	candidates := make([]*sdHandle, len(r.sds))
	copy(candidates, r.sds)
	staleness := r.hbStaleness
	r.mu.Unlock()

	var best *sdHandle
	for _, h := range candidates {
		if tried[h] || !h.healthy.Load() {
			continue
		}
		if staleness > 0 && h.heartbeatStale(staleness) {
			r.metrics.Counter(metrics.CoreHeartbeatSkips).Inc()
			continue
		}
		if best == nil || h.inflight.Load() < best.inflight.Load() {
			best = h
		}
	}
	return best
}

// heartbeatStale reports whether the node's liveness stamp is older than
// staleness. Stamps only move forward, so while the last one read is
// within the window a fresh read could only agree: the verdict costs no
// share I/O. A stale verdict always comes from a fresh read (Stat +
// ReadAt); a share without a heartbeat file is never stale.
func (h *sdHandle) heartbeatStale(staleness time.Duration) bool {
	if ns := h.hbStamp.Load(); ns != 0 && time.Since(time.Unix(0, ns)) <= staleness {
		return false
	}
	ts, ok := smartfam.ReadHeartbeat(h.share)
	if !ok {
		return false
	}
	h.hbStamp.Store(ts.UnixNano())
	return time.Since(ts) > staleness
}

// ShardedResult is the outcome of one shard of RunSharded.
type ShardedResult struct {
	Index   int
	Result  *Result
	Err     error
	Payload []byte
}

// RunSharded dispatches one invocation per params entry concurrently
// across the attached SD nodes — the multi-SD parallelism of §VI. Results
// arrive in input order; individual shard failures do not cancel others.
func (r *Runtime) RunSharded(ctx context.Context, module string, paramsList []any) []ShardedResult {
	out := make([]ShardedResult, len(paramsList))
	var wg sync.WaitGroup
	for i, p := range paramsList {
		wg.Add(1)
		go func(i int, p any) {
			defer wg.Done()
			res, err := r.Invoke(ctx, module, p)
			out[i] = ShardedResult{Index: i, Result: res, Err: err}
			if res != nil {
				out[i].Payload = res.Payload
			}
		}(i, p)
	}
	wg.Wait()
	return out
}

// MarkHealthy restores a node after operator intervention.
func (r *Runtime) MarkHealthy(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.sds {
		if h.name == name {
			h.healthy.Store(true)
			return true
		}
	}
	return false
}
