package smartfam

import (
	"context"
	"errors"
	"sync"
	"time"

	"mcsd/internal/metrics"
)

// This file is the host half of the fam v2 push-mode front door:
//
//   - respRouter replaces InvokeID's per-call polling loop when the share
//     implements WatchFS: ONE notify-driven reader per module log parses
//     the records each notify carries (scanning the log only when one does
//     not) and hands each response to the waiter registered under its
//     correlation ID. Waiters register BEFORE appending their request, so a
//     response can never land unobserved.
//   - batcher is the group-commit side (groupcommit.go): concurrent
//     InvokeID calls against one module coalesce their request records into
//     a single share append per batch window (bounded by bytes and delay),
//     cutting the per-invocation RPC cost to ~1/batch. Duplicate records
//     from a torn-flush retry are deduped by the daemon's journal, so
//     exactly-once survives batching.
//
// Both degrade loudly, never wedge: a lost notify stream flips the router
// to fast polling (counted under smartfam.fam.degraded) and periodically
// re-arms push; a share that cannot push at all (DirFS, a wrapper hiding
// the capability, a pre-watch server) keeps the classic append-then-poll
// path untouched.

// pushSafetyFloor is how long the notify stream must stay silent, with
// waiters pending, before the router's safety scan first reads the log
// itself; it is also the router's tick. Push delivers the fast path; the
// safety scan only covers dropped notifies (the server's per-watcher queue
// is bounded) and writers that bypass the server, so it can be far lazier
// than the polling interval.
const pushSafetyFloor = 25 * time.Millisecond

// SetBatching enables host-side group commit with the given bounds (<= 0
// selects the defaults). Call before sharing the client across
// goroutines; batching changes only how request records reach the share,
// not the protocol on it.
func (c *Client) SetBatching(maxBytes int, maxDelay time.Duration) {
	if maxBytes <= 0 {
		maxBytes = DefaultBatchBytes
	}
	if maxDelay <= 0 {
		maxDelay = DefaultBatchDelay
	}
	c.batchBytes, c.batchDelay = maxBytes, maxDelay
}

func (c *Client) countPushEvent() {
	if c.metrics != nil {
		c.metrics.Counter(metrics.FamPushEvents).Inc()
	}
}

func (c *Client) countDegraded() {
	if c.metrics != nil {
		c.metrics.Counter(metrics.FamDegraded).Inc()
	}
}

func (c *Client) pushGaugeAdd(delta int64) {
	if c.metrics != nil {
		c.metrics.Gauge(metrics.FamPushActive).Add(delta)
	}
}

// routerLinger is how long an idle router keeps its goroutine and
// server-side watch armed after the last in-flight invocation leaves.
// Re-arming costs three round trips (watch, stat, generation), so tearing
// down between the bursts of a busy caller would tax every burst with the
// arm latency; a watch held idle costs the server one map entry.
const routerLinger = time.Second

// respRouter is the notify-driven response reader for one module log. It
// is reference-counted by in-flight invocations: the first creates it (and
// its goroutine); after the last leaves the router lingers routerLinger
// before retiring, so an idle client eventually holds no goroutines and no
// server-side watch.
type respRouter struct {
	c       *Client
	wfs     WatchFS
	module  string
	logName string

	// refs/stopped/idleSince are guarded by c.pushMu (see Client.router).
	refs      int
	stopped   bool
	idleSince time.Time // set when refs hits 0; zeroed on reuse

	mu      sync.Mutex
	waiters map[string]chan Record

	// off/gen/lost/buf are touched only by the router goroutine. lost marks
	// an offset no longer known to match the log: a bare notify or a gap
	// went unscanned for want of waiters (a compaction may have truncated
	// the log under it), so until an inline append lands exactly on it or a
	// scan has re-run the compaction checks, no append is taken as already
	// consumed.
	off  int64
	gen  int64
	lost bool
	buf  []byte // scan buffer, allocated on the first scan
}

// router returns the live response router for module, creating it (and
// arming a server watch) on first use. nil means push is unavailable —
// the caller runs the classic polling path. A share that reports
// ErrWatchUnsupported is remembered as permanently pushless. The arm
// I/O — watch, stat, generation, three round trips — runs with pushMu
// released; when two first-callers race, the loser joins the winner's
// router and folds its own watch.
func (c *Client) router(module string) *respRouter {
	wfs, ok := c.fs.(WatchFS)
	if !ok {
		return nil
	}
	if rt, broken := c.joinRouter(module); rt != nil || broken {
		return rt
	}
	logName := LogName(module)
	st, err := wfs.Watch(logName)
	if err != nil {
		if errors.Is(err, ErrWatchUnsupported) {
			c.pushMu.Lock()
			c.pushBroken = true
			c.pushMu.Unlock()
		}
		return nil
	}
	// Snapshot the scan start BEFORE any caller appends its request (the
	// caller registers first, then appends — and only after this router is
	// published), so responses to our requests always land at or after off.
	size, _, err := c.fs.Stat(logName)
	if err != nil {
		st.Close()
		return nil
	}
	gen := ReadGeneration(c.fs, module)

	c.pushMu.Lock()
	if rt := c.routers[module]; rt != nil && !rt.stopped {
		// Lost the arm race: join the winner's router.
		rt.refs++
		rt.idleSince = time.Time{}
		c.pushMu.Unlock()
		st.Close()
		return rt
	}
	rt := &respRouter{
		c:       c,
		wfs:     wfs,
		module:  module,
		logName: logName,
		refs:    1,
		waiters: make(map[string]chan Record),
		off:     size,
		gen:     gen,
	}
	if c.routers == nil {
		c.routers = make(map[string]*respRouter)
	}
	c.routers[module] = rt
	c.pushMu.Unlock()
	//mcsdlint:allow goroleak -- run exits through expire(): its ticker fires at least every safety interval and retires the router once it has sat at zero refs past routerLinger (refcounted under c.pushMu); a stream loss inside run only degrades it to polling, the ticker keeps firing
	go rt.run(st)
	return rt
}

// joinRouter takes a reference on module's live router when one exists.
// The second return reports the permanently-pushless verdict so callers
// skip the arm I/O.
func (c *Client) joinRouter(module string) (*respRouter, bool) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	if c.pushBroken {
		return nil, true
	}
	if rt := c.routers[module]; rt != nil && !rt.stopped {
		rt.refs++
		rt.idleSince = time.Time{}
		return rt, false
	}
	return nil, false
}

// register installs a waiter for the response carrying id. Must be called
// before the request record is appended.
func (rt *respRouter) register(id string) chan Record {
	ch := make(chan Record, 1)
	rt.mu.Lock()
	rt.waiters[id] = ch
	rt.mu.Unlock()
	return ch
}

// unregister drops the waiter and, when it was the last, arms the linger
// clock: the router survives short idle gaps (bursty callers reclaim it
// for free) and expire() retires it from the run loop once the gap
// outlasts routerLinger.
func (rt *respRouter) unregister(id string) {
	c := rt.c
	c.pushMu.Lock()
	rt.mu.Lock()
	delete(rt.waiters, id)
	rt.mu.Unlock()
	rt.refs--
	if rt.refs == 0 {
		rt.idleSince = time.Now()
	}
	c.pushMu.Unlock()
}

// expire retires the router once it has sat at zero refs past
// routerLinger; returns true when the run loop should exit. Called from
// the router goroutine on its ticker.
func (rt *respRouter) expire() bool {
	c := rt.c
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	if rt.refs > 0 || rt.idleSince.IsZero() || time.Since(rt.idleSince) < routerLinger {
		return false
	}
	rt.stopped = true
	if c.routers[rt.module] == rt {
		delete(c.routers, rt.module)
	}
	return true
}

// run is the router goroutine. While the notify stream is live each event
// is consumed as it comes: inline append bytes are parsed in place, and
// only a bare notify or a gap costs a scan of the share. The safety scan
// covers dropped notifies and writers that bypass the server: it starts
// once the stream has been silent for the safety floor with waiters
// pending, reads from the offset alone, backs off ×2 per empty result up
// to routerLinger (reset by any event or find), and runs the full
// compaction probe at least once per routerLinger. On stream loss the
// router degrades to polling at the client's interval while periodically
// trying to re-arm push.
func (rt *respRouter) run(st WatchStream) {
	c := rt.c
	floor := pushSafetyFloor
	if d := 10 * c.interval; d > floor {
		floor = d
	}
	tick := time.NewTicker(floor)
	defer tick.Stop()
	c.pushGaugeAdd(1)
	defer func() {
		if st != nil {
			st.Close()
			c.pushGaugeAdd(-1)
		}
	}()
	quiet := time.Now()  // the stream has been silent since
	wait := floor        // silence that starts the next safety scan
	probed := time.Now() // last safety-scan compaction probe
	for {
		var events <-chan WatchEvent
		if st != nil {
			events = st.Events()
		}
		select {
		case ev, ok := <-events:
			if !ok {
				// Stream lost: degraded mode. Poll fast, like the classic
				// path, and let the tick double as the re-arm probe.
				st = nil
				c.pushGaugeAdd(-1)
				c.countDegraded()
				tick.Reset(c.interval)
				continue
			}
			c.countPushEvent()
			quiet, wait = time.Now(), floor
			if !rt.take(ev) {
				rt.scan(true)
			}
		case now := <-tick.C:
			if rt.expire() {
				return
			}
			if st == nil {
				if ns, err := rt.wfs.Watch(rt.logName); err == nil {
					st = ns
					c.pushGaugeAdd(1)
					tick.Reset(floor)
					quiet, wait = now, floor
				} else if errors.Is(err, ErrWatchUnsupported) {
					c.pushMu.Lock()
					c.pushBroken = true
					c.pushMu.Unlock()
				}
				rt.scan(true)
				continue
			}
			if now.Sub(quiet) < wait || !rt.armed() {
				continue
			}
			probe := now.Sub(probed) >= routerLinger
			if probe {
				probed = now
			}
			if rt.scan(probe) {
				wait = floor
			} else {
				wait = min(2*wait, routerLinger)
			}
			quiet = time.Now()
		}
	}
}

// take consumes a notify that carries the appended bytes at their offset,
// without touching the share: bytes landing exactly at the offset go
// straight to ParseRecords (CRCs and torn-tail quarantine apply as on a
// read), and bytes a scan already consumed are skipped. It reports false
// when the event cannot stand in for a read — a bare notify, a gap past
// the offset (a dropped notify, a writer that bypassed the server), a
// partial overlap, a torn inline tail, or an apparently consumed append
// against a lost offset — and the caller scans. An exact match settles a
// lost offset: Off is where the server wrote the bytes in the log as it
// is now.
func (rt *respRouter) take(ev WatchEvent) bool {
	if ev.Name != rt.logName {
		return true // another file under the prefix: not ours to read
	}
	if len(ev.Data) == 0 {
		return false
	}
	if ev.Off != rt.off {
		return !rt.lost && ev.Off+int64(len(ev.Data)) <= rt.off
	}
	rt.lost = false
	recs, consumed, corrupt, err := ParseRecords(ev.Data)
	rt.c.countCorrupt(corrupt)
	if err != nil {
		return false
	}
	rt.off += int64(consumed)
	rt.deliver(recs)
	return consumed == len(ev.Data)
}

// armed reports whether any invocation is waiting on this router.
func (rt *respRouter) armed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.waiters) > 0
}

// scanChunk is the router's optimistic read size. Records are a few
// hundred bytes, so one chunk covers thousands of them — and it stays
// within the share's single-RPC read bound, keeping the hot scan at
// exactly one round trip.
const scanChunk = 256 << 10

// scan reads records appended since the offset, delivers responses to
// their registered waiters and reports whether it consumed any. The read
// is ONE round trip: the log grows append-only between compactions, so
// the scan reads a chunk straight from the saved offset — no Stat first;
// the short read bounds it, and ParseRecords quarantines a tail torn
// mid-append until a later read completes it. With probe set, the
// compaction checks run when the read comes back empty, which is exactly
// what a shrunken log looks like from a stale offset; a lost offset is
// checked before reading. With no waiters registered the scan is skipped
// entirely and the offset marked lost; the next armed scan catches up.
func (rt *respRouter) scan(probe bool) bool {
	if !rt.armed() {
		rt.lost = true
		return false
	}
	if rt.lost {
		rt.lost = false
		rt.rewind()
	}
	if rt.buf == nil {
		rt.buf = make([]byte, scanChunk)
	}
	found := false
	for pass := 0; pass < 2; pass++ {
		read := 0
		for {
			n, err := rt.c.fs.ReadAt(rt.logName, rt.buf, rt.off)
			if n > 0 {
				recs, consumed, corrupt, perr := ParseRecords(rt.buf[:n])
				rt.c.countCorrupt(corrupt)
				if perr != nil {
					return found
				}
				rt.off += int64(consumed)
				rt.deliver(recs)
				read += n
				found = found || consumed > 0
				if consumed == 0 {
					// A torn tail with no complete record in front of it:
					// wait for the append that terminates it.
					break
				}
			}
			if err != nil || n < len(rt.buf) {
				break
			}
		}
		// Nothing at the offset: usually just no news, but a compacted or
		// truncated log shows the same face — check, rewind, rescan once.
		if read > 0 || !probe || !rt.rewind() {
			return found
		}
	}
	return found
}

// rewind runs the compaction checks — generation bump, truncation below
// the offset — and restarts the offset at zero when either shows the log
// is a different image. It reports whether it rewound.
func (rt *respRouter) rewind() bool {
	if g := ReadGeneration(rt.c.fs, rt.module); g != rt.gen {
		rt.gen, rt.off = g, 0
		return true
	}
	if size, _, err := rt.c.fs.Stat(rt.logName); err == nil && size < rt.off {
		rt.off = 0
		return true
	}
	return false
}

// deliver hands each response record to its registered waiter. Matching
// and removal happen under rt.mu; the sends happen after it is released,
// keeping the critical section free of channel traffic.
func (rt *respRouter) deliver(recs []Record) {
	type delivery struct {
		ch  chan Record
		rec Record
	}
	var due []delivery
	rt.mu.Lock()
	for _, rec := range recs {
		if rec.Kind != KindResponse {
			continue
		}
		ch, ok := rt.waiters[rec.ID]
		if !ok {
			continue
		}
		delete(rt.waiters, rec.ID)
		due = append(due, delivery{ch, rec})
	}
	rt.mu.Unlock()
	for _, dv := range due {
		//mcsdlint:allow chanbound -- the waiter channel is made with cap 1 in register and was removed from the map under rt.mu above, so this is its single delivery; it cannot block
		dv.ch <- dv.rec
	}
}

// invokePush is InvokeID's fast path: register the waiter, append the
// request (batched or direct), block on the routed response.
func (c *Client) invokePush(ctx context.Context, rt *respRouter, module, logName, id string, line []byte) ([]byte, error) {
	ch := rt.register(id)
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

// batcher returns the group-commit batcher for logName, or nil when
// batching is disabled (the default). Every member blocks on the one
// append its batch leader performs; a retry under the same correlation ID
// is deduped by the daemon's journal, so a member that left early on its
// ctx loses nothing.
func (c *Client) batcher(logName string) *groupCommit {
	if c.batchBytes <= 0 {
		return nil
	}
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	b := c.batchers[logName]
	if b == nil {
		b = &groupCommit{
			maxBytes: c.batchBytes,
			maxDelay: c.batchDelay,
			flush: func(ctx context.Context, buf []byte, ids []string) error {
				err := c.appendRetrying(ctx, logName, buf)
				if err == nil && c.metrics != nil {
					c.metrics.Counter(metrics.FamBatchFlushes).Inc()
					c.metrics.Counter(metrics.FamBatchRecords).Add(int64(len(ids)))
					c.metrics.Counter(metrics.FamBatchBytes).Add(int64(len(buf)))
				}
				return err
			},
		}
		if c.batchers == nil {
			c.batchers = make(map[string]*groupCommit)
		}
		c.batchers[logName] = b
	}
	return b
}
