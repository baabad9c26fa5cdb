package smartfam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcsd/internal/metrics"
)

// Client is the host-node side of smartFAM: it writes input parameters into
// a module's log file on the share (step 1 of Fig. 5) and one response
// router per module log watches it for the module's results (steps 2-4 of
// result return) on behalf of every waiting caller.
type Client struct {
	fs         FS
	interval   time.Duration
	metrics    *metrics.Registry
	staleAfter time.Duration
	lastStamp  atomic.Int64 // last heartbeat stamp Probe read (UnixNano; 0 = none)

	// Response routers and group commit (push.go). pushMu guards the maps.
	pushMu     sync.Mutex
	routers    map[string]*respRouter  // live response routers, by module
	batchers   map[string]*groupCommit // group-commit batchers, by log name
	pushBroken atomic.Bool             // share can never push; stop trying
}

// NewClient returns a client over the shared folder fsys. interval
// (DefaultPollInterval when <= 0) is the response routers' tick on a share
// that delivers no change notifications; on one that does, the routers'
// safety probe runs at ten times it, never below 25ms.
func NewClient(fsys FS, interval time.Duration) *Client {
	if interval <= 0 {
		interval = DefaultPollInterval
	}
	return &Client{fs: fsys, interval: interval}
}

// SetMetrics attaches a metrics registry (corrupt-record and retry
// counters). Nil is allowed and is the default.
func (c *Client) SetMetrics(m *metrics.Registry) { c.metrics = m }

// DefaultProbeStaleAfter is how old a daemon heartbeat may be before Probe
// declares the node dead. Generous against the daemon's default 250ms
// refresh so scheduling hiccups never flap a healthy node.
const DefaultProbeStaleAfter = 2 * time.Second

// SetProbeStaleAfter tunes Probe's heartbeat-freshness window (<= 0
// restores the default). Call before sharing the client across
// goroutines.
func (c *Client) SetProbeStaleAfter(d time.Duration) { c.staleAfter = d }

// Probe checks node liveness without invoking a module: the share must be
// reachable and, when the daemon publishes a heartbeat, the heartbeat must
// be fresh. A share with no heartbeat file (heartbeats disabled, or a
// daemon too old to write one) probes as alive on reachability alone —
// the caller's attempt timeout remains the backstop there. The host
// runtime probes before every offload; the fleet coordinator probes to
// mark failed nodes back up.
//
// Stamps only move forward, so while the last stamp read is inside the
// window a fresh read could only agree: "alive" then costs no share I/O.
// "Stale" only ever comes from a fresh read, and an invocation that fails
// on the transport or times out forgets the stamp, so the next Probe reads.
func (c *Client) Probe(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stale := c.staleAfter
	if stale <= 0 {
		stale = DefaultProbeStaleAfter
	}
	if ns := c.lastStamp.Load(); ns != 0 && time.Since(time.Unix(0, ns)) <= stale {
		return nil
	}
	ts, ok := ReadHeartbeat(c.fs)
	if !ok {
		// No heartbeat: fall back to plain share reachability.
		if _, err := c.fs.List(); err != nil {
			return fmt.Errorf("smartfam: probe: %w", err)
		}
		return nil
	}
	c.lastStamp.Store(ts.UnixNano())
	if age := time.Since(ts); age > stale {
		return fmt.Errorf("smartfam: probe: heartbeat is %v old (stale after %v)", age, stale)
	}
	return nil
}

// countCorrupt bumps the shared corrupt-record counter; metric names are
// pinned to the registry constants (metrickey), so each counter gets its
// own accessor instead of a name-taking helper.
func (c *Client) countCorrupt(n int) {
	if c.metrics != nil && n != 0 {
		c.metrics.Counter(metrics.SmartfamCorruptRecords).Add(int64(n))
	}
}

func (c *Client) countAppendRetry() {
	if c.metrics != nil {
		c.metrics.Counter(metrics.SmartfamClientAppendRetries).Inc()
	}
}

// ModuleError is a module-side failure relayed through the log file.
type ModuleError struct {
	Module string
	Msg    string
}

func (e *ModuleError) Error() string {
	return fmt.Sprintf("smartfam: module %q failed: %s", e.Module, e.Msg)
}

// Modules lists the modules available on the SD node, discovered from the
// log files present on the share.
func (c *Client) Modules() ([]string, error) {
	names, err := c.fs.List()
	if err != nil {
		return nil, err
	}
	var mods []string
	for _, n := range names {
		if m, ok := ModuleFromLog(n); ok {
			mods = append(mods, m)
		}
	}
	return mods, nil
}

// appendRequest lands one marshalled request record on the module log
// through the log's group-commit batcher. A caller whose ctx is done gets
// the ctx error bare.
func (c *Client) appendRequest(ctx context.Context, module, logName, id string, line []byte) error {
	err := c.batcher(logName).add(ctx, id, line)
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return fmt.Errorf("smartfam: sending request to %q: %w", module, err)
}

// Invoke calls the named module with params and blocks until its results
// arrive or ctx is done. A missing log file means the module is not loaded
// (ErrUnknownModule). The request is sent under a fresh correlation ID;
// callers that retry a failed invocation should use InvokeID with the
// SAME ID so the daemon can dedupe (replaying the cached response if the
// work already ran) instead of executing the module twice.
func (c *Client) Invoke(ctx context.Context, module string, params []byte) ([]byte, error) {
	return c.InvokeID(ctx, module, NewID(), params)
}

// InvokeID is Invoke with a caller-chosen correlation ID — the idempotency
// key of the smartFAM protocol. Reusing the ID across retries makes the
// invocation exactly-once: a daemon that already completed the work
// re-appends its journaled response rather than re-running the module.
func (c *Client) InvokeID(ctx context.Context, module, id string, params []byte) (_ []byte, err error) {
	defer func() {
		var merr *ModuleError
		if err != nil && !errors.As(err, &merr) && !errors.Is(err, ErrUnknownModule) {
			c.lastStamp.Store(0) // transport failure or timeout: the next Probe reads
		}
	}()
	logName := LogName(module)
	req := Record{Kind: KindRequest, ID: id, Payload: params}
	line, err := req.Marshal()
	if err != nil {
		return nil, err
	}

	// One reader per module log: the router registers the waiter BEFORE
	// the append, so a response can never land unobserved. No per-call
	// existence Stat here: the router stat'ed the log when it armed, so a
	// live router IS the existence check — the hot path costs one
	// (batched) append, not an extra round trip.
	rt, err := c.router(module)
	if err != nil {
		return nil, err
	}
	ch := rt.register(ctx, id, line)
	defer rt.unregister(id)
	if err := c.appendRequest(ctx, module, logName, id, line); err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case rec := <-ch:
		if rec.Status == StatusError {
			return nil, &ModuleError{Module: module, Msg: string(rec.Payload)}
		}
		return rec.Payload, nil
	}
}
