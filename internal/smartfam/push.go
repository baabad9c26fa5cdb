package smartfam

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"mcsd/internal/metrics"
)

// This file is the host's one response reader and the host half of the
// fam v2 push-mode front door:
//
//   - respRouter is the ONE reader per module log, shared by every InvokeID
//     waiting on it. On a share that implements WatchFS it is notify-driven:
//     it rebuilds the log from the bytes the notifies carry — in offset
//     order, however they arrive — reading the share only for what no
//     notify brought. On a share that cannot push (DirFS, a wrapper hiding
//     the capability, a pre-watch server) it is tick-driven: one scan of
//     the log per client interval, whatever the number of waiters. Either
//     way it hands each response to the waiter registered under its
//     correlation ID, and waiters register BEFORE appending their request,
//     so a response can never land unobserved.
//   - batcher is the group-commit side (groupcommit.go) and the only way a
//     request reaches the share: concurrent InvokeID calls against one
//     module coalesce their request records into a single share append per
//     batch — the leader yields once, then flushes; the byte bound closes a
//     batch early — cutting a burst's per-invocation RPC cost to ~1/batch
//     while a lone call pays no wait. A torn flush is retried whole: a
//     request that lands twice still runs once (the daemon's dedupe), and
//     the router delivers only the first response per ID.
//
// Both degrade loudly, never wedge: a lost notify stream drops the router
// into the same tick mode (counted under smartfam.fam.degraded) and each
// tick tries to re-arm push; a share without WatchFS, or one that reported
// ErrWatchUnsupported, is tick-driven from the start and never re-probed.
//
// The router reads the log through a logCursor (cursor.go), like every
// other log reader. A notify, size probe or empty read that shows a new
// file identity — a compaction — rewinds it to offset zero, and it
// appends every pending waiter's request again, so a response the
// compaction dropped before the router read it is answered from the
// daemon's cache.

// pushSafetyFloor is the notify-driven router's tick and, with waiters
// pending, its size probe interval: bytes still undelivered a whole
// interval after a probe saw them are read from the share. Push delivers
// the fast path; the probe only covers dropped notifies (the server's
// per-watcher queue is bounded) and writers that bypass the server.
const pushSafetyFloor = 25 * time.Millisecond

// SetBatching is a no-op kept for its callers: request group commit is
// always on, bounded at DefaultBatchBytes, with no delay to set.
//
// Deprecated: requests are always group-committed.
func (c *Client) SetBatching(int, time.Duration) {}

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
// Re-arming costs two round trips (watch, then a Stat that also reports
// the log's identity), so tearing down between the bursts of a busy
// caller would tax every burst with the arm latency; a watch held idle
// costs the server one map entry.
const routerLinger = time.Second

// respRouter is the response reader for one module log. It is
// reference-counted by in-flight invocations: the first creates it (and
// its goroutine); after the last leaves the router lingers routerLinger
// before retiring, so an idle client eventually holds no goroutines and no
// server-side watch.
type respRouter struct {
	c       *Client
	module  string
	logName string

	// refs/stopped/idleSince are guarded by c.pushMu (see Client.router).
	refs      int
	stopped   bool
	idleSince time.Time // set when refs hits 0; zeroed on reuse

	mu      sync.Mutex
	waiters map[string]waiter

	// The rest is touched only by the router goroutine. cur reads the log
	// and knows its identity. lost marks an offset no longer known to
	// match the log: a bare notify or a gap went unscanned for want of
	// waiters, a notify named another identity, or no stream announces
	// rewrites at all, so until an inline append lands exactly on it or a
	// scan has looked at the log first, no append is taken as already
	// consumed and none is held.
	cur   logCursor
	lost  bool
	held  []WatchEvent // inline appends past the offset, by Off, awaiting the gap
	heldN int          // bytes in held, bounded by scanChunk
	seen  int64        // log size at the previous size probe
	epoch int          // bumped by every rewind; older probes are stale
}

// waiter is one invocation waiting on a router: where its response goes,
// and the request line it appended under ctx, which a rewind appends again.
type waiter struct {
	ch   chan Record
	ctx  context.Context
	line []byte
}

// router returns module's live response router with a reference taken,
// creating it on first use. Arming stats the log — the existence check:
// a missing log is ErrUnknownModule — after it has tried to open a notify
// stream; without one the router starts tick-driven. The arm I/O — watch,
// then one Stat that also reports the log's identity, two round trips —
// runs with pushMu released; when two first-callers race, the loser joins
// the winner's router and folds its own watch.
func (c *Client) router(module string) (*respRouter, error) {
	if rt := c.joinRouter(module); rt != nil {
		return rt, nil
	}
	logName := LogName(module)
	st := c.watch(logName)
	// Snapshot the scan start BEFORE any caller appends its request (the
	// caller registers first, then appends — and only after this router is
	// published), so responses to our requests always land at or after off.
	size, id, err := statLog(c.fs, logName)
	if err != nil {
		if st != nil {
			st.Close()
		}
		if errors.Is(err, ErrNotExist) {
			// The log file is created at preload time; its absence means
			// the module does not exist on the SD node.
			return nil, fmt.Errorf("%w: %q", ErrUnknownModule, module)
		}
		return nil, err
	}

	c.pushMu.Lock()
	if rt := c.routers[module]; rt != nil && !rt.stopped {
		// Lost the arm race: join the winner's router.
		rt.refs++
		rt.idleSince = time.Time{}
		c.pushMu.Unlock()
		if st != nil {
			st.Close()
		}
		return rt, nil
	}
	rt := &respRouter{
		c:       c,
		module:  module,
		logName: logName,
		refs:    1,
		waiters: make(map[string]waiter),
		cur:     logCursor{fs: c.fs, name: logName, off: size, id: id, corrupt: c.countCorrupt},
	}
	if c.routers == nil {
		c.routers = make(map[string]*respRouter)
	}
	c.routers[module] = rt
	c.pushMu.Unlock()
	// run exits through expire(): its ticker fires at least every probe
	// interval and retires the router once it has sat at zero refs past
	// routerLinger (refcounted under c.pushMu); a stream loss inside run
	// only drops it to tick mode, the ticker keeps firing. It joins its
	// size probes before it returns.
	go rt.run(st)
	return rt, nil
}

// joinRouter takes a reference on module's live router when one exists.
func (c *Client) joinRouter(module string) *respRouter {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	rt := c.routers[module]
	if rt == nil || rt.stopped {
		return nil
	}
	rt.refs++
	rt.idleSince = time.Time{}
	return rt
}

// watch opens a notify stream on logName, or returns nil when the share
// cannot push: it lacks WatchFS, the watch failed, or the share once
// reported ErrWatchUnsupported — remembered, so it is never asked again.
func (c *Client) watch(logName string) WatchStream {
	wfs, ok := c.fs.(WatchFS)
	if !ok || c.pushBroken.Load() {
		return nil
	}
	st, err := wfs.Watch(logName)
	if err != nil {
		if errors.Is(err, ErrWatchUnsupported) {
			c.pushBroken.Store(true)
		}
		return nil
	}
	return st
}

// register installs a waiter for the response carrying id, whose request
// line is line, appended under ctx. Must be called before the request
// record is appended.
func (rt *respRouter) register(ctx context.Context, id string, line []byte) chan Record {
	ch := make(chan Record, 1)
	rt.mu.Lock()
	rt.waiters[id] = waiter{ch: ch, ctx: ctx, line: line}
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
// is consumed as it comes: inline append bytes at the offset are parsed in
// place, bytes past it wait in held until the gap closes, and only a bare
// notify, a torn inline tail or a full held buffer costs a scan of the
// share. With waiters pending, every tick launches one size probe (a Stat,
// off this goroutine, so no event waits behind it); when it answers, the
// bytes below the size the previous probe saw that no event has brought
// are read — they sat on the server a whole interval with no notify. The
// probe's Stat reports the log's identity too, so it also catches a
// rewrite no notify announced. With no stream — a share that cannot push,
// or a stream lost — the router is tick-driven at the client's interval:
// each tick tries to re-arm push, then scans.
func (rt *respRouter) run(st WatchStream) {
	c := rt.c
	floor := pushSafetyFloor
	if d := 10 * c.interval; d > floor {
		floor = d
	}
	every := c.interval
	if st != nil {
		every = floor
		c.pushGaugeAdd(1)
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	var probes sync.WaitGroup
	answers := make(chan sizeProbe, 1)
	defer func() {
		probes.Wait()
		if st != nil {
			st.Close()
			c.pushGaugeAdd(-1)
		}
	}()
	event := func(ev WatchEvent, ok bool) {
		if !ok {
			// Stream lost: degraded to tick mode, where the tick doubles
			// as the re-arm probe.
			st = nil
			c.pushGaugeAdd(-1)
			c.countDegraded()
			tick.Reset(c.interval)
			return
		}
		c.countPushEvent()
		if !rt.take(ev) {
			rt.scan()
		}
	}
	probing := false
	for {
		var events <-chan WatchEvent
		if st != nil {
			events = st.Events()
		}
		select {
		case ev, ok := <-events:
			event(ev, ok)
		case p := <-answers:
			probing = false
			// Events already queued are older than the answer: take them
			// first, so the probe never reads what they carry.
			for queued := true; queued && st != nil; {
				select {
				case ev, ok := <-st.Events():
					event(ev, ok)
				default:
					queued = false
				}
			}
			if st != nil {
				rt.probed(p)
			}
		case <-tick.C:
			if rt.expire() {
				return
			}
			if st == nil {
				// No stream announced a rewrite since the last tick: the
				// scan looks at the log before it reads.
				rt.lost = true
				if st = c.watch(rt.logName); st != nil {
					c.pushGaugeAdd(1)
					tick.Reset(floor)
				}
				rt.scan()
				continue
			}
			if probing || !rt.armed() {
				continue
			}
			probing = true
			rt.probe(&probes, answers)
		}
	}
}

// sizeProbe is one size probe's answer, tagged with the offset and rewind
// epoch it was launched against.
type sizeProbe struct {
	size  int64
	id    uint64
	err   error
	from  int64
	epoch int
}

// probe looks at the log — size and identity — on its own goroutine and
// answers on out. run keeps one probe in flight, so out — made with room
// for one — always takes the answer, and joins it through wg before it
// retires.
func (rt *respRouter) probe(wg *sync.WaitGroup, out chan<- sizeProbe) {
	p := sizeProbe{from: rt.cur.off, epoch: rt.epoch}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.size, p.id, p.err = statLog(rt.c.fs, rt.logName)
		select {
		case out <- p:
		default:
		}
	}()
}

// probed acts on a size probe's answer. The log below the size the
// previous probe saw has sat on the server a whole probe interval; what of
// it no event has brought — from the offset up to the first held event —
// is read now, and nothing else. A log shorter than the offset the probe
// started from, or a new identity, is a rewrite no notify announced: the
// offset is lost and a scan rewinds it.
func (rt *respRouter) probed(p sizeProbe) {
	if p.err != nil || p.epoch != rt.epoch {
		return
	}
	if p.size < p.from || p.id != rt.cur.id {
		rt.lost = true
	}
	end := rt.seen
	rt.seen = p.size
	if rt.lost {
		rt.scan()
		return
	}
	if len(rt.held) > 0 {
		end = min(end, rt.held[0].Off)
	}
	if rt.cur.off >= end || !rt.armed() {
		return
	}
	rt.cur.read(end, rt.deliver)
	if rt.cur.off < end {
		// The gap ends inside a record — torn mid-append, or completed by
		// the held event after it: read on from the offset.
		rt.scan()
		return
	}
	rt.drain()
}

// take consumes a notify that carries the appended bytes at their offset,
// without touching the share: bytes landing exactly at the offset go
// straight to the cursor's parse (CRCs and torn-tail quarantine apply as
// on a read) and release the held events they reach, bytes past the
// offset are held until the gap before them closes, and bytes a scan
// already consumed are skipped. It reports false when the event cannot
// stand in for a read — a notify naming another identity than the
// cursor's, a bare notify, a partial overlap, a torn inline tail or a gap
// behind one, a held buffer past its bound, or any append but an exact
// match against a lost offset — and the caller scans. An exact match
// settles a lost offset: Off is where the server wrote the bytes in the
// log as it is now.
func (rt *respRouter) take(ev WatchEvent) bool {
	if ev.Name != rt.logName {
		return true // another file under the prefix: not ours to read
	}
	if ev.Gen != rt.cur.id && ev.Gen != 0 && rt.cur.id != 0 {
		// The log was rewritten (or the server restarted): the offset may
		// point into another file, and the bytes belong to one. A view
		// without GenStat knows no identity to compare.
		rt.lost = true
		return false
	}
	if len(ev.Data) == 0 {
		return false
	}
	if ev.Off != rt.cur.off {
		switch {
		case rt.lost:
			return false
		case ev.Off+int64(len(ev.Data)) <= rt.cur.off:
			return true
		case ev.Off < rt.cur.off || rt.cur.torn:
			return false
		}
		return rt.hold(ev)
	}
	rt.lost = false
	return rt.cur.parse(ev.Data, rt.deliver) == len(ev.Data) && rt.drain()
}

// hold keeps an inline append that landed past the offset, in offset
// order, until the gap before it closes. It reports false when the held
// bytes would pass scanChunk: the caller scans instead.
func (rt *respRouter) hold(ev WatchEvent) bool {
	i, dup := slices.BinarySearchFunc(rt.held, ev.Off, func(h WatchEvent, off int64) int {
		return cmp.Compare(h.Off, off)
	})
	if dup {
		return true
	}
	if rt.heldN+len(ev.Data) > scanChunk {
		return false
	}
	rt.held = slices.Insert(rt.held, i, ev)
	rt.heldN += len(ev.Data)
	return true
}

// drain consumes the held events the offset has reached and drops those a
// read already covered. It reports false when one cannot be taken whole (a
// partial overlap, a torn tail): the caller scans.
func (rt *respRouter) drain() bool {
	for len(rt.held) > 0 && rt.held[0].Off <= rt.cur.off {
		ev := rt.held[0]
		rt.held[0] = WatchEvent{}
		rt.held = rt.held[1:]
		rt.heldN -= len(ev.Data)
		if ev.Off+int64(len(ev.Data)) <= rt.cur.off {
			continue
		}
		if ev.Off < rt.cur.off || rt.cur.parse(ev.Data, rt.deliver) != len(ev.Data) {
			return false
		}
	}
	return true
}

// armed reports whether any invocation is waiting on this router.
func (rt *respRouter) armed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.waiters) > 0
}

// scan reads the records appended since the offset, delivers responses to
// their registered waiters and releases the held events the offset then
// reaches. The read is ONE round trip: the log grows append-only between
// rewrites, so the scan reads a chunk straight from the saved offset — no
// Stat first; the short read bounds it, and the cursor holds back a tail
// torn mid-append until a later read completes it. The look at the log
// runs when the read comes back empty, which is exactly what a shrunken
// log looks like from a stale offset; a lost offset is looked at before
// reading instead. With no waiters registered the scan is skipped
// entirely and the offset marked lost; the next armed scan catches up.
func (rt *respRouter) scan() {
	if !rt.armed() {
		rt.lost = true
		rt.held, rt.heldN = nil, 0
		return
	}
	checked := rt.lost
	if checked {
		rt.lost = false
		rt.rewind()
	}
	// Nothing at the offset: usually just no news, but a compacted or
	// truncated log shows the same face — look, rewind, rescan once.
	if n, _ := rt.cur.read(-1, rt.deliver); n == 0 && !checked && rt.rewind() {
		rt.cur.read(-1, rt.deliver)
	}
	rt.drain()
}

// rewind looks at the log — size and identity, one share operation — and
// restarts the offset at zero when the log is no longer the file the
// offset points into, forgetting everything measured against the old one.
// A response that landed past the offset may have gone with the old file,
// so every pending waiter's request is appended again under its ID — all
// in one group commit, before the router reads on: the daemon answers a
// finished one from its response cache and skips one still running. It
// reports whether it rewound.
func (rt *respRouter) rewind() bool {
	size, id, err := statLog(rt.c.fs, rt.logName)
	if err != nil || !rt.cur.look(size, id) {
		return false
	}
	rt.seen = 0
	rt.held, rt.heldN = nil, 0
	rt.epoch++
	rt.mu.Lock()
	pending := maps.Clone(rt.waiters)
	rt.mu.Unlock()
	b := rt.c.batcher(rt.logName)
	var wg sync.WaitGroup
	for id, w := range pending {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The waiter's own deadline bounds the append; a copy that
			// fails costs only that waiter, as a lost response would.
			_ = b.add(w.ctx, id, w.line)
		}()
	}
	wg.Wait()
	return true
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
		w, ok := rt.waiters[rec.ID]
		if !ok {
			continue
		}
		delete(rt.waiters, rec.ID)
		due = append(due, delivery{w.ch, rec})
	}
	rt.mu.Unlock()
	for _, dv := range due {
		//mcsdlint:allow chanbound -- the waiter channel is made with cap 1 in register and was removed from the map under rt.mu above, so this is its single delivery; it cannot block
		dv.ch <- dv.rec
	}
}

// batcher returns the group-commit batcher for logName. Every member
// blocks on the one append its batch leader performs; a retry under the
// same correlation ID is deduped by the daemon's journal, so a member that
// left early on its ctx loses nothing.
func (c *Client) batcher(logName string) *groupCommit {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	b := c.batchers[logName]
	if b == nil {
		b = &groupCommit{
			maxBytes: DefaultBatchBytes,
			flush: func(ctx context.Context, buf []byte, ids []string) error {
				// Each record's leading newline makes a retry after a torn
				// attempt safe: the partial bytes parse as one corrupt line
				// and the retried batch resyncs the log.
				err := retryShare(ctx, func() error {
					err := c.fs.Append(logName, buf)
					if err != nil {
						c.countAppendRetry()
					}
					return err
				})
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
