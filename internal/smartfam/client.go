package smartfam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mcsd/internal/metrics"
)

// Client is the host-node side of smartFAM: it writes input parameters into
// a module's log file on the share (step 1 of Fig. 5) and watches the log
// for the module's results (steps 2-4 of result return).
type Client struct {
	fs         FS
	interval   time.Duration
	metrics    *metrics.Registry
	staleAfter time.Duration

	// fam v2 push-mode state (push.go). pushMu guards all of it.
	pushMu     sync.Mutex
	routers    map[string]*respRouter  // live response routers, by module
	batchers   map[string]*groupCommit // group-commit batchers, by log name
	pushBroken bool                    // share can never push; stop trying
	batchBytes int                     // 0: batching disabled (the default)
	batchDelay time.Duration
}

// NewClient returns a client over the shared folder fsys, polling for
// responses at the given interval (DefaultPollInterval when <= 0).
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
// the caller's attempt timeout remains the backstop there. The fleet
// coordinator uses Probe to mark failed nodes back up.
func (c *Client) Probe(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ts, ok := ReadHeartbeat(c.fs)
	if !ok {
		// No heartbeat: fall back to plain share reachability.
		if _, err := c.fs.List(); err != nil {
			return fmt.Errorf("smartfam: probe: %w", err)
		}
		return nil
	}
	stale := c.staleAfter
	if stale <= 0 {
		stale = DefaultProbeStaleAfter
	}
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

// appendAttempts bounds the request-append retry loop.
const appendAttempts = 4

var appendBackoff = 2 * time.Millisecond

// appendRequest lands one marshalled request record on the module log,
// through the group-commit batcher when batching is enabled, else with a
// direct append. A caller whose ctx is done gets the ctx error bare.
func (c *Client) appendRequest(ctx context.Context, module, logName, id string, line []byte) error {
	var err error
	if b := c.batcher(logName); b != nil {
		err = b.add(ctx, id, line)
	} else {
		err = c.appendRetrying(ctx, logName, line)
	}
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return fmt.Errorf("smartfam: sending request to %q: %w", module, err)
}

// appendRetrying appends data to logName with bounded retry. A transient
// share error must not fail the invocation outright, and each record's
// leading newline makes a retry after a torn attempt safe — the partial
// bytes parse as one corrupt line and the retried record resyncs the log.
// A done ctx stops the retries but the append error is what is returned:
// it is the cause a batch's other members care about.
func (c *Client) appendRetrying(ctx context.Context, logName string, data []byte) error {
	backoff := appendBackoff
	for attempt := 1; ; attempt++ {
		err := c.fs.Append(logName, data)
		if err == nil {
			return nil
		}
		c.countAppendRetry()
		if attempt >= appendAttempts {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
		backoff *= 2
	}
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
func (c *Client) InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error) {
	logName := LogName(module)
	req := Record{Kind: KindRequest, ID: id, Payload: params}
	line, err := req.Marshal()
	if err != nil {
		return nil, err
	}

	// Push fast path (fam v2): when the share streams change
	// notifications, a per-module router delivers the response without
	// polling. The router registers the waiter BEFORE the append. No
	// per-call existence Stat here: the router stat'ed the log when it
	// armed its watch, so a live router IS the existence check — the hot
	// path costs one (batched) append, not an extra round trip.
	if rt := c.router(module); rt != nil {
		return c.invokePush(ctx, rt, module, logName, id, line)
	}

	// Degraded/legacy path: append, then poll the log for the response.
	// The log file is created at preload time; its absence means the
	// module does not exist on the SD node.
	off, _, err := c.fs.Stat(logName)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownModule, module)
		}
		return nil, err
	}
	if err := c.appendRequest(ctx, module, logName, id, line); err != nil {
		return nil, err
	}

	// Watch the log from just before our own request; our request record
	// is skipped by kind, and the daemon's response is matched by ID.
	gen := ReadGeneration(c.fs, module)
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
			// Tolerate a compacted/recreated log: restart from the top
			// (our pending request survives compaction by design).
			if g := ReadGeneration(c.fs, module); g != gen {
				gen, off = g, 0
			} else if size, _, err := c.fs.Stat(logName); err == nil && size < off {
				off = 0
			}
			data, err := ReadFrom(c.fs, logName, off)
			if err != nil || len(data) == 0 {
				continue
			}
			recs, consumed, corrupt, err := ParseRecords(data)
			c.countCorrupt(corrupt)
			if err != nil {
				return nil, err
			}
			off += int64(consumed)
			for _, rec := range recs {
				if rec.Kind != KindResponse || rec.ID != id {
					continue
				}
				if rec.Status == StatusError {
					return nil, &ModuleError{Module: module, Msg: string(rec.Payload)}
				}
				return rec.Payload, nil
			}
		}
	}
}
