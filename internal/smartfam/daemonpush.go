package smartfam

import (
	"context"
	"errors"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/trace"
)

// This file is the SD-node half of the fam v2 push-mode front door:
//
//   - runNotify feeds the daemon's dispatch loop with changed log names.
//     When the share implements WatchFS it arms ONE server-push stream
//     over the whole share and the polling Watcher stays parked; the
//     moment the stream dies (connection loss, server restart) the
//     watcher engages at the classic poll interval and the loop
//     periodically tries to re-arm push. A share that can never push
//     (DirFS, a pre-watch server) runs pure polling from the start. The
//     rescan sweep in Run stays on in every mode — it remains the source
//     of truth for lost notifications.
//   - respBatcherFor is the response-side group commit (groupcommit.go),
//     enabled with WithResponseBatching: completed executions coalesce
//     their response records into one share append per batch window. DONE
//     is journaled per record BEFORE it joins a batch and RESP per record
//     after the batch lands, so the journal's exactly-once argument is
//     untouched — a crash between the two replays cached responses, never
//     re-runs.

// rearmEvery is how many degraded-mode poll ticks pass between attempts
// to re-arm the push stream.
const rearmEvery = 100

// WithResponseBatching turns on daemon-side group commit for response
// records with the given bounds (<= 0 selects DefaultBatchBytes /
// DefaultBatchDelay). Off by default: the classic one-append-per-response
// path is the reference behaviour.
func WithResponseBatching(maxBytes int, maxDelay time.Duration) DaemonOption {
	return func(dm *Daemon) {
		if maxBytes <= 0 {
			maxBytes = DefaultBatchBytes
		}
		if maxDelay <= 0 {
			maxDelay = DefaultBatchDelay
		}
		dm.respBytes, dm.respDelay = maxBytes, maxDelay
	}
}

// runNotify multiplexes change notifications into names until ctx is
// done. Push mode is reported on the smartfam.fam.push_active gauge (one
// trace span covers each stream attachment); every fallback transition
// counts under smartfam.fam.degraded.
func (d *Daemon) runNotify(ctx context.Context, names chan<- string) {
	wfs, _ := d.fs.(WatchFS)
	w := NewWatcher(d.fs, d.interval)
	w.AddAll()

	var (
		st   WatchStream
		span *trace.Span
	)
	arm := func() {
		if wfs == nil || st != nil {
			return
		}
		s, err := wfs.Watch("")
		if err != nil {
			if errors.Is(err, ErrWatchUnsupported) {
				wfs = nil // permanent: stop probing
			}
			return
		}
		st = s
		span = d.tracer.Start(trace.SpanFamPush)
		d.metrics.Gauge(metrics.FamPushActive).Set(1)
	}
	degrade := func() {
		st = nil
		span.Finish()
		span = nil
		d.metrics.Gauge(metrics.FamPushActive).Set(0)
		d.metrics.Counter(metrics.FamDegraded).Inc()
	}
	arm()
	if st == nil {
		// Could not push from the start (plain DirFS, pre-watch server):
		// degraded is the daemon's standing mode, note it once.
		d.metrics.Counter(metrics.FamDegraded).Inc()
	}
	defer func() {
		if st != nil {
			st.Close()
			span.Finish()
			d.metrics.Gauge(metrics.FamPushActive).Set(0)
		}
	}()

	forward := func(name string) bool {
		select {
		case names <- name:
			return true
		case <-ctx.Done():
			return false
		}
	}

	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	sinceArm := 0
	for {
		var events <-chan WatchEvent
		if st != nil {
			events = st.Events()
		}
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				degrade()
				sinceArm = 0
				continue
			}
			d.metrics.Counter(metrics.FamPushEvents).Inc()
			if !forward(ev.Name) {
				return
			}
		case <-tick.C:
			if st != nil {
				continue // push carries the load; the tick just idles
			}
			w.Poll()
		drain:
			for {
				select {
				case ev := <-w.Events():
					if !forward(ev.Name) {
						return
					}
				default:
					break drain
				}
			}
			if sinceArm++; sinceArm >= rearmEvery {
				sinceArm = 0
				arm()
			}
		}
	}
}

// respBatcherFor returns the response batcher for module, or nil when
// response batching is disabled. It runs detached: an enqueuer returns at
// once, so a worker is never parked behind the batch window and the
// responder's throughput stays workers-independent. By the time a record
// joins, its response is cached and journaled DONE, so whether the flush
// lands (RESP journaled) or dies with the daemon (restart replays the
// cache), exactly-once holds without the worker waiting around.
func (d *Daemon) respBatcherFor(module string) *groupCommit {
	if d.respBytes <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.respBatchers[module]
	if b == nil {
		logName := LogName(module)
		b = &groupCommit{
			maxBytes: d.respBytes,
			maxDelay: d.respDelay,
			detached: true,
			flush: func(ctx context.Context, buf []byte, ids []string) error {
				return d.flushResponses(ctx, logName, buf, ids)
			},
		}
		if d.respBatchers == nil {
			d.respBatchers = make(map[string]*groupCommit)
		}
		d.respBatchers[module] = b
	}
	return b
}

// flushResponses lands one response batch with the respond path's bounded
// retry. On success every member's RESP is journaled; on final failure the
// responses stay cached and journaled DONE, so a restart (or a host retry)
// replays them.
func (d *Daemon) flushResponses(ctx context.Context, logName string, buf []byte, ids []string) error {
	// Leading newlines per record keep a whole-batch retry after a torn
	// append safe, exactly as on the single-record path.
	err := retryShare(ctx, func() error {
		err := d.fs.Append(logName, buf)
		if err != nil {
			d.metrics.Counter(metrics.DaemonAppendErrors).Inc()
		}
		return err
	})
	if err != nil {
		d.metrics.Counter(metrics.SmartfamRespondErrors).Add(int64(len(ids)))
		return err
	}
	d.metrics.Counter(metrics.FamRespFlushes).Inc()
	d.metrics.Counter(metrics.FamRespRecords).Add(int64(len(ids)))
	for _, id := range ids {
		if err := d.journal.Resp(id); err != nil {
			d.metrics.Counter(metrics.DaemonJournalErrors).Inc()
		}
	}
	return nil
}
