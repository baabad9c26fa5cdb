package smartfam

import (
	"context"
	"errors"
	"time"

	"mcsd/internal/metrics"
)

// This file is the SD-node half of the fam v2 push-mode front door:
//
//   - serve is the daemon's one reader: the only change-driven path into
//     drainRequests. When the share implements WatchFS it arms ONE
//     server-push stream over the whole share and drains each log a notify
//     names; one ticker sweeps every log, rarely while the stream lives
//     (a dropped notify, a drain that hit a share error) and every tick
//     once it is lost, when the loop also tries now and then to re-arm
//     push. A share that can never push (DirFS, a pre-watch server) is
//     swept every tick from the start. A drain costs one StatGen — the
//     log's size and identity, so a compaction rewinds the log's cursor
//     to offset zero — plus bounded reads of what the log grew by.
//   - respBatcherFor is the response-side group commit (groupcommit.go)
//     and the only way a fresh answer reaches the share: completed
//     executions coalesce their response records into one share append per
//     batch (the leader yields once, then flushes). DONE is journaled per
//     record BEFORE it joins a batch and RESP per record after the batch
//     lands, so the journal's exactly-once argument is untouched — a crash
//     between the two replays cached responses, never re-runs. A failed
//     flush re-sends only the members with no response on the log yet.
//     Replays (recovery, dedupe) and sheds append one record directly
//     (appendResponse).

// rearmEvery is how many degraded-mode ticks pass between attempts to
// re-arm the push stream.
const rearmEvery = 100

// WithResponseBatching is a no-op kept for its callers: response group
// commit is always on, bounded at DefaultBatchBytes, with no delay to set.
//
// Deprecated: responses are always group-committed.
func WithResponseBatching(int, time.Duration) DaemonOption {
	return func(*Daemon) {}
}

// serve feeds dispatch the log names to drain until ctx is done: the log
// a push notify names, and every log on each tick's sweep. The one ticker
// runs at the poll interval while no stream is live and at the sweep
// period, max(50 × interval, 20 ms), while one is, so a push-mode node
// does not wake every poll interval to idle. Push mode is reported on the
// smartfam.fam.push_active gauge; every fallback transition counts under
// smartfam.fam.degraded.
func (d *Daemon) serve(ctx context.Context, dispatch func(logName string)) {
	sweepEvery := max(50*d.interval, 20*time.Millisecond)
	tick := time.NewTicker(d.interval)
	defer tick.Stop()

	wfs, _ := d.fs.(WatchFS)
	var st WatchStream
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
		d.metrics.Gauge(metrics.FamPushActive).Set(1)
		tick.Reset(sweepEvery)
	}
	degrade := func() {
		st = nil
		d.metrics.Gauge(metrics.FamPushActive).Set(0)
		d.metrics.Counter(metrics.FamDegraded).Inc()
		tick.Reset(d.interval)
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
			d.metrics.Gauge(metrics.FamPushActive).Set(0)
		}
	}()

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
			dispatch(ev.Name)
		case <-tick.C:
			// A failed List is transient: the next tick sweeps again.
			if names, err := d.fs.List(); err == nil {
				for _, name := range names {
					dispatch(name)
				}
			}
			if st != nil {
				continue
			}
			if sinceArm++; sinceArm >= rearmEvery {
				sinceArm = 0
				arm()
			}
		}
	}
}

// respBatcherFor returns the response batcher for module. It runs
// detached: an enqueuer returns at once, so a worker is never parked
// behind the leader's flush and the responder's throughput stays
// workers-independent. By the time a record joins, its response is cached
// and journaled DONE, so whether the flush lands (RESP journaled) or dies
// with the daemon (restart replays the cache), exactly-once holds without
// the worker waiting around.
func (d *Daemon) respBatcherFor(module string) *groupCommit {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.respBatchers[module]
	if b == nil {
		logName := LogName(module)
		b = &groupCommit{
			maxBytes: DefaultBatchBytes,
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

// joinResponses waits until every response batch already joined has
// landed or failed for good. Run calls it after the recovery pass and at
// shutdown, when no response can join a batch concurrently.
func (d *Daemon) joinResponses() {
	d.mu.Lock()
	batchers := make([]*groupCommit, 0, len(d.respBatchers))
	for _, b := range d.respBatchers {
		batchers = append(batchers, b)
	}
	d.mu.Unlock()
	for _, b := range batchers {
		b.leaders.Wait()
	}
}

// flushResponses lands one response batch under retryShare. A failed
// attempt may have landed a prefix of the batch, so each retry re-sends
// only the members with no response record on the log yet. On success
// every member's RESP is journaled; on final failure the responses stay
// cached and journaled DONE, so a restart (or a host retry) replays them.
func (d *Daemon) flushResponses(ctx context.Context, logName string, buf []byte, ids []string) error {
	// The batch lands past what the dispatch loop has consumed.
	d.mu.Lock()
	from := d.offsets[logName]
	d.mu.Unlock()
	pending, left := buf, len(ids)
	failed := false
	err := retryShare(ctx, func() error {
		if failed {
			pending, left = d.unlanded(logName, from, buf)
			if left == 0 {
				return nil
			}
		}
		err := d.fs.Append(logName, pending)
		if err != nil {
			failed = true
			d.metrics.Counter(metrics.DaemonAppendErrors).Inc()
		}
		return err
	})
	if err != nil {
		d.metrics.Counter(metrics.SmartfamRespondErrors).Add(int64(left))
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

// unlanded returns the records of batch buf that have no answer on
// logName at or past from, and how many there are. Only a non-shed
// response counts as landed: a queue-full shed for the same ID can sit in
// the log before the answer, and skipping a member on it would strand its
// caller. When the log cannot be read it returns the whole batch — a
// duplicate response is ignored by the host's router, a missing one is not.
func (d *Daemon) unlanded(logName string, from int64, buf []byte) ([]byte, int) {
	members, _, _, _ := ParseRecords(buf)
	landed := make(map[string]bool)
	cur := &logCursor{fs: d.fs, name: logName, off: from}
	if _, err := cur.read(-1, func(recs []Record) {
		for _, rec := range recs {
			if rec.Kind == KindResponse && !isShed(rec) {
				landed[rec.ID] = true
			}
		}
	}); err != nil {
		return buf, len(members)
	}
	var out []byte
	left := 0
	for _, m := range members {
		if !landed[m.ID] {
			line, _ := m.Marshal() // it parsed, so it re-encodes
			out = append(out, line...)
			left++
		}
	}
	return out, left
}
