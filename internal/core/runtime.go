package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
	"mcsd/internal/trace"
)

// Runtime is the host-side McSD runtime: it tracks attached smart-storage
// nodes and offloads data-intensive module invocations to them over
// smartFAM while the host's computation-intensive work overlaps (§IV).
// Placement, load spreading and failover (§VI) are fleet.Coordinator's:
// every job is a one-fragment Execute over the nodes whose liveness probe
// passes.
type Runtime struct {
	pollInterval   time.Duration
	attemptTimeout time.Duration
	metrics        *metrics.Registry
	tracer         *trace.Tracer

	mu  sync.Mutex
	sds []attachedSD
}

// attachedSD is one node as AttachSD registered it.
type attachedSD struct {
	name   string
	client *smartfam.Client
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithPollInterval sets how often the runtime polls the share for module
// responses.
//
//mcsdlint:allow deadexport -- seam: the root integration and chaos tests poll at 1 ms
func WithPollInterval(d time.Duration) Option {
	return func(r *Runtime) {
		if d > 0 {
			r.pollInterval = d
		}
	}
}

// WithAttemptTimeout bounds each offload attempt; on expiry the runtime
// fails over to the next node. Zero disables per-attempt timeouts.
//
//mcsdlint:allow deadexport -- seam: the root failover integration test bounds each attempt
func WithAttemptTimeout(d time.Duration) Option {
	return func(r *Runtime) { r.attemptTimeout = d }
}

// WithTracer records a span tree per job (offload leg, host-side leg,
// per-node attempts), renderable with trace.Render — it makes the
// framework's host/SD overlap visible.
func WithTracer(tr *trace.Tracer) Option {
	return func(r *Runtime) { r.tracer = tr }
}

// WithInvokeBatching is a no-op kept for its callers: every attached
// node's client group-commits its requests, bounded at
// smartfam.DefaultBatchBytes, with no delay to set.
//
// Deprecated: requests are always group-committed.
func WithInvokeBatching(int, time.Duration) Option {
	return func(*Runtime) {}
}

// New returns an empty runtime; attach SD nodes with AttachSD.
func New(opts ...Option) *Runtime {
	r := &Runtime{
		pollInterval: smartfam.DefaultPollInterval,
		metrics:      metrics.NewRegistry(),
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
	client := smartfam.NewClient(share, r.pollInterval)
	client.SetMetrics(r.metrics)
	r.mu.Lock()
	r.sds = append(r.sds, attachedSD{name: name, client: client})
	r.mu.Unlock()
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
}

// Result reports one completed job.
type Result struct {
	// Payload is the module's result payload (Decode into the module's
	// output type).
	Payload []byte
	// SD names the node that served the invocation.
	SD string
	// Attempts counts offload attempts, including the successful one.
	Attempts int
	// Elapsed is end-to-end job time (max of offload and Local).
	Elapsed time.Duration
}

// Errors returned by Run/Invoke.
var (
	ErrNoExecutor = errors.New("core: no SD node can run module")
)

// Run executes a job: the module invocation is offloaded to a live SD node
// (failing over on node errors) while Job.Local runs concurrently on the
// host. Run returns when both halves finish.
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
	res, offErr := r.offload(ctx, job.Module, params, offSpan)
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

// offload runs one module invocation as a one-fragment job of a
// fleet.Coordinator over the attached nodes whose Probe passes. The
// coordinator places it under a random key, so concurrent jobs spread over
// the live nodes; a transport error, timeout or missing module fails it
// over to the next node, a shedding node gets it requeued, and a module
// error ends it. MaxAttempts 1 means one attempt at a time: a whole job is
// never run twice at once. Every attempt shares the fragment's
// correlation ID, so a node that already ran it replays the journaled
// response instead of running the module again.
func (r *Runtime) offload(ctx context.Context, module string, params []byte, span *trace.Span) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	sds := slices.Clone(r.sds)
	r.mu.Unlock()
	nodes := make([]fleet.Node, 0, len(sds))
	for _, sd := range sds {
		if sd.client.Probe(ctx) != nil {
			r.metrics.Counter(metrics.CoreHeartbeatSkips).Inc()
			continue
		}
		nodes = append(nodes, fleet.Node{Name: sd.name, Session: nodeSession{Client: sd.client, node: sd.name, span: span, reg: r.metrics}})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoExecutor, module)
	}
	coord := fleet.NewCoordinator(nodes, fleet.Config{
		MaxAttempts:    1,
		AttemptTimeout: r.attemptTimeout,
		Metrics:        r.metrics,
	})
	won, stats, err := coord.Execute(ctx, module, []fleet.Fragment{{Key: smartfam.NewID(), Params: params}})
	r.metrics.Counter(metrics.CoreFailovers).Add(int64(stats.NodeFailures))
	switch {
	case errors.Is(err, fleet.ErrNoNodes):
		return nil, fmt.Errorf("%w: %q: %v", ErrNoExecutor, module, err)
	case errors.Is(err, sched.ErrQueueFull):
		r.metrics.Counter(metrics.CoreQueueFullRejects).Inc()
		return nil, fmt.Errorf("core: offload of %q: %w", module, err)
	case err != nil:
		return nil, err
	}
	r.metrics.Counter(metrics.CoreOffloads).Inc()
	return &Result{Payload: won[0].Payload, SD: won[0].Node, Attempts: won[0].Attempts}, nil
}

// nodeSession is one attached node as one job's coordinator sees it: the
// node's smartFAM client, Probe included, with every invocation timed into
// core.invoke.<module> and recorded as an attempt span of the job.
type nodeSession struct {
	*smartfam.Client
	node string
	span *trace.Span
	reg  *metrics.Registry
}

func (a nodeSession) InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error) {
	span := a.span.Child(trace.SpanAttemptPrefix + a.node)
	start := time.Now()
	payload, err := a.Client.InvokeID(ctx, module, id, params)
	a.reg.Timer(metrics.CoreInvokePrefix + module).Observe(time.Since(start))
	span.Finish()
	return payload, err
}
