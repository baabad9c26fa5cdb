package smartfam

import (
	"context"
	"errors"
	"sync"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/sched"
)

// Daemon is the SD-node side of smartFAM (Fig. 5, steps 2-4 of parameter
// passing): it watches every module log file on the share, and when the
// host appends a request, it retrieves the parameters, invokes the module,
// and appends the results as a response record.
//
// Every request is submitted to one job scheduler (internal/sched): its
// worker pool drains the queue in per-module fair order under
// memory-aware admission control, and a full queue is reported back to
// the caller through the result record as an error response —
// backpressure instead of a silent stall. A shed request is not answered
// for good: the caller may resubmit it under the same ID.
//
// With a journal attached (WithJournal), the daemon is crash-safe: every
// request is journaled through INTENT → DONE → RESP states on local disk,
// a restarted daemon replays unfinished work exactly once (cached results
// are re-appended, never re-executed), and duplicate requests — host
// retries reusing the original ID — are answered from the cache. See the
// package comment in journal.go for the full argument.
type Daemon struct {
	fs             FS
	reg            *Registry
	interval       time.Duration
	heartbeat      time.Duration
	statusInterval time.Duration
	workers        int
	metrics        *metrics.Registry
	sched          *sched.Scheduler
	estimate       sched.Estimator

	journalPath string
	journal     *Journal
	journalErr  error
	recovery    *JournalState

	// Response-side group commit (daemonpush.go).
	respBatchers map[string]*groupCommit // guarded by mu

	// cursors holds the dispatch loop's cursor per log file; only the
	// goroutine that runs drainRequests touches it.
	cursors map[string]*logCursor

	mu         sync.Mutex
	offsets    map[string]int64 // consumed bytes per log file, as of the last drain
	responded  map[string]struct{}
	completed  map[string]CachedResponse // bounded dedupe/replay cache
	cacheOrder []string
}

// DaemonOption configures a Daemon.
type DaemonOption func(*Daemon)

// DefaultPollInterval is the daemon's tick: its sweep period while no
// push stream is live. 2 ms keeps invocation latency well under the
// network round-trip it accompanies.
const DefaultPollInterval = 2 * time.Millisecond

// WithPollInterval sets the daemon's tick: its sweep period while no push
// stream is live (see serve).
func WithPollInterval(d time.Duration) DaemonOption {
	return func(dm *Daemon) {
		if d > 0 {
			dm.interval = d
		}
	}
}

// WithWorkers bounds concurrent module invocations — the number of cores
// the SD node dedicates to data-intensive modules (default 2). It sizes
// the scheduler NewDaemon builds; with WithScheduler it is ignored.
func WithWorkers(n int) DaemonOption {
	return func(dm *Daemon) {
		if n > 0 {
			dm.workers = n
		}
	}
}

// WithMetrics attaches a metrics registry.
func WithMetrics(m *metrics.Registry) DaemonOption {
	return func(dm *Daemon) { dm.metrics = m }
}

// WithHeartbeat sets the liveness-stamp refresh interval; a negative value
// disables the heartbeat entirely.
//
//mcsdlint:allow deadexport -- seam: the root chaos, fleet-notify and nfs differential tests switch the heartbeat off
func WithHeartbeat(d time.Duration) DaemonOption {
	return func(dm *Daemon) { dm.heartbeat = d }
}

// WithScheduler replaces the scheduler NewDaemon would build (WithWorkers
// workers, the default queue depth, no memory budget, the daemon's
// metrics) — how a node sets its queue depth and memory
// budget. The daemon drives the scheduler's Run loop and publishes its
// queue status on the share (QueueStatusName) for mcsdctl's queue verb.
// The scheduler's executor decides how a job runs; build it over this
// daemon's Registry.
func WithScheduler(s *sched.Scheduler) DaemonOption {
	return func(dm *Daemon) { dm.sched = s }
}

// WithFootprintEstimator sizes jobs for the scheduler's memory-aware
// admission control (no estimator = every job admits freely).
func WithFootprintEstimator(est sched.Estimator) DaemonOption {
	return func(dm *Daemon) { dm.estimate = est }
}

// WithJournal enables the crash-recovery journal at the given local path.
// NewDaemon opens and replays it immediately (the recovery pass); the
// replayed work itself — cached-response re-appends and intent re-runs —
// happens at the start of Run, before any new request is served.
func WithJournal(path string) DaemonOption {
	return func(dm *Daemon) { dm.journalPath = path }
}

// WithStatusInterval overrides how often the queue/journal status snapshot
// is republished on the share.
//
//mcsdlint:allow deadexport -- seam: the root chaos tests and the mcsdctl tests set the status period
func WithStatusInterval(d time.Duration) DaemonOption {
	return func(dm *Daemon) {
		if d > 0 {
			dm.statusInterval = d
		}
	}
}

// NewDaemon returns a daemon serving the modules of reg over the share
// fsys. When a journal path is configured, the journal is opened and
// replayed here; an open failure is surfaced by Run.
func NewDaemon(fsys FS, reg *Registry, opts ...DaemonOption) *Daemon {
	d := &Daemon{
		fs:             fsys,
		reg:            reg,
		interval:       DefaultPollInterval,
		heartbeat:      DefaultHeartbeatInterval,
		statusInterval: DefaultQueueStatusInterval,
		metrics:        metrics.NewRegistry(),
		cursors:        make(map[string]*logCursor),
		offsets:        make(map[string]int64),
		responded:      make(map[string]struct{}),
		completed:      make(map[string]CachedResponse),
	}
	for _, o := range opts {
		o(d)
	}
	if d.sched == nil {
		d.sched = sched.New(sched.Config{Workers: d.workers, Metrics: d.metrics}, d.execute)
	}
	if d.journalPath != "" {
		j, state, err := OpenJournal(d.journalPath)
		if err != nil {
			d.journalErr = err
			return d
		}
		d.journal = j
		d.recovery = state
		d.metrics.Counter(metrics.SmartfamCorruptRecords).Add(int64(state.Corrupt))
		// Seed the dedupe cache with every completed execution the
		// journal remembers.
		for id, c := range state.Completed {
			d.cacheLocked(id, c)
		}
	}
	return d
}

// Metrics returns the daemon's metrics registry.
func (d *Daemon) Metrics() *metrics.Registry { return d.metrics }

// countCorrupt counts corrupt log lines a cursor skipped.
func (d *Daemon) countCorrupt(n int) {
	d.metrics.Counter(metrics.SmartfamCorruptRecords).Add(int64(n))
}

// execute is the executor of the scheduler NewDaemon builds: it runs the
// job's module from the daemon's registry.
func (d *Daemon) execute(ctx context.Context, job *sched.Job) ([]byte, error) {
	m, err := d.reg.Lookup(job.Module)
	if err != nil {
		return nil, err
	}
	return m.Run(ctx, job.Payload)
}

// Run serves until ctx is done. It always returns ctx.Err(), except when
// the configured journal could not be opened. Everything Run starts —
// invocations, the notify stream, heartbeat, scheduler, status publisher,
// detached response flushes — has finished when it returns, so nothing
// touches the share afterwards.
func (d *Daemon) Run(ctx context.Context) error {
	if d.journalErr != nil {
		return d.journalErr
	}
	ctx, cancel := context.WithCancel(ctx)
	var (
		wg sync.WaitGroup // invocations
		bg sync.WaitGroup // the serving loop's companions
	)
	defer func() {
		cancel()
		wg.Wait()
		// Invocations are done, so no response joins a batch any more.
		d.joinResponses()
		bg.Wait()
	}()
	spawn := func(fn func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			fn()
		}()
	}

	spawn(func() { _ = d.sched.Run(ctx) })
	// Crash recovery replays unfinished journal entries before any new
	// work: cached responses are re-appended, open intents re-executed.
	// The re-runs' answers land before the first drain, which reads from
	// offset zero: it must see each re-run request with its response behind
	// it, or it takes the request for a host retry and answers it twice.
	d.recoverPass(ctx)
	d.joinResponses()

	if d.heartbeat >= 0 {
		spawn(func() { _ = RunHeartbeat(ctx, d.fs, d.heartbeat) })
	}
	spawn(func() { _ = d.publishQueueStatus(ctx) })

	d.serve(ctx, func(logName string) {
		module, ok := ModuleFromLog(logName)
		if !ok {
			return
		}
		for _, req := range d.drainRequests(ctx, logName) {
			if h := d.submit(ctx, module, req); h != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d.await(ctx, module, req.ID, h)
				}()
			}
		}
	})
	return ctx.Err()
}

// shareIndex is a point-in-time scan of every module log, used by the
// recovery pass to locate requests by ID and to avoid duplicating
// responses that already reached the share.
type shareIndex struct {
	requests  map[string]Record // pending request records by ID
	reqModule map[string]string
	responded map[string]struct{}
}

func (d *Daemon) scanShare(ctx context.Context) shareIndex {
	idx := shareIndex{
		requests:  make(map[string]Record),
		reqModule: make(map[string]string),
		responded: make(map[string]struct{}),
	}
	// The scan backs the recovery pass: a transient share error here would
	// silently misclassify open intents as lost, so it retries under
	// retryShare like the appends do.
	var names []string
	if err := retryShare(ctx, func() error {
		var err error
		names, err = d.fs.List()
		return err
	}); err != nil {
		return idx
	}
	for _, name := range names {
		module, ok := ModuleFromLog(name)
		if !ok {
			continue
		}
		cur := &logCursor{fs: d.fs, name: name, corrupt: d.countCorrupt}
		// A retry reads on from where the failed read stopped.
		_ = retryShare(ctx, func() error {
			_, err := cur.read(-1, func(recs []Record) {
				for _, rec := range recs {
					switch rec.Kind {
					case KindRequest:
						idx.requests[rec.ID] = rec
						idx.reqModule[rec.ID] = module
					case KindResponse:
						if !isShed(rec) {
							idx.responded[rec.ID] = struct{}{}
						}
					}
				}
			})
			return err
		})
	}
	return idx
}

// recoverPass finishes what a crashed predecessor started: DONE entries
// whose response never reached the log get their cached result
// re-appended (no re-execution); INTENT entries with no DONE are re-run
// through the scheduler, one at a time, so recovery finishes before new
// requests are read and never sheds its own intents. Everything it
// touches is marked responded so the main loop's drain — which restarts
// from offset zero — cannot serve it again.
func (d *Daemon) recoverPass(ctx context.Context) {
	if d.recovery == nil {
		return
	}
	state := d.recovery
	d.recovery = nil
	if len(state.Completed) == 0 && len(state.Intents) == 0 {
		return
	}
	idx := d.scanShare(ctx)

	for id, c := range state.Completed {
		if state.Acked[id] {
			continue
		}
		if _, inLog := idx.responded[id]; inLog {
			// The response landed but the crash beat the RESP entry;
			// just ack it now.
			_ = d.journal.Resp(id)
			continue
		}
		if d.respond(ctx, c.Module, id, c.Status, c.Payload) {
			_ = d.journal.Resp(id)
		}
		d.metrics.Counter(metrics.DaemonRecovered).Inc()
	}

	for id, e := range state.Intents {
		if _, inLog := idx.responded[id]; inLog {
			continue // answered before the crash
		}
		req, ok := idx.requests[id]
		if !ok {
			// The request record is gone (compacted mid-crash with its
			// pair, or the log was removed). Nothing to re-run.
			d.metrics.Counter(metrics.DaemonIntentsLost).Inc()
			continue
		}
		module := e.Module
		if module == "" {
			module = idx.reqModule[id]
		}
		if h := d.submit(ctx, module, req); h != nil {
			d.await(ctx, module, id, h)
		}
		d.metrics.Counter(metrics.DaemonRecovered).Inc()
	}
}

// drainRequests reads new records from the log and returns the unanswered
// requests. It is the dedupe point: responses (ours, or a predecessor's
// replayed on restart) mark IDs answered, and a request record for an
// already-answered ID is either skipped silently (the normal restart
// replay of an answered pair) or — when it FOLLOWS the response, i.e. the
// host retried after missing it — answered again from the cache without
// re-executing the module.
func (d *Daemon) drainRequests(ctx context.Context, logName string) []Record {
	cur := d.cursors[logName]
	if cur == nil {
		cur = &logCursor{fs: d.fs, name: logName, corrupt: d.countCorrupt}
		d.cursors[logName] = cur
	}
	// A new identity (or a log shorter than the offset) means the saved
	// offset points into a different file image: restart from the top.
	// The look comes before the read: a compacted log that regrew past
	// the offset differs only in identity. The responded set keeps
	// replayed requests idempotent.
	size, id, err := statLog(d.fs, logName)
	if err != nil {
		return nil
	}
	cur.look(size, id)
	// Pass 1, chunk by chunk up to the size in hand: index the responses
	// (latest position per ID) so a request and its answer arriving
	// together — the whole-log rescan a restarted daemon performs — never
	// re-serves the request, and keep the requests for pass 2. A shed
	// answers only the requests before it: a resubmit after it is new work.
	var (
		recs     []Record
		resIDs   []string // non-shed responses
		batchRes map[string]int64
	)
	if cur.off < size {
		batchRes = make(map[string]int64)
		_, _ = cur.read(size, func(batch []Record) {
			for _, rec := range batch {
				if rec.Kind != KindResponse {
					recs = append(recs, rec)
					continue
				}
				if pos, ok := batchRes[rec.ID]; !ok || rec.Pos > pos {
					batchRes[rec.ID] = rec.Pos
				}
				if !isShed(rec) {
					resIDs = append(resIDs, rec.ID)
				}
			}
		})
	}

	d.mu.Lock()
	d.offsets[logName] = cur.off
	for _, id := range resIDs {
		d.responded[id] = struct{}{}
	}
	// Pass 2: classify requests.
	var reqs []Record
	var replays []CachedResponse
	var replayIDs []string
	queued := make(map[string]bool)
	for _, rec := range recs {
		if pos, ok := batchRes[rec.ID]; ok && rec.Pos < pos {
			continue // answered pair replayed in order: nothing to do
		}
		if queued[rec.ID] {
			continue // duplicate within the batch (torn-append retry)
		}
		_, answered := d.responded[rec.ID]
		cached, inCache := d.completed[rec.ID]
		if answered || inCache {
			// A duplicate of an admitted request: a host retry reusing its
			// original ID, or a request a torn batch retry landed twice.
			// Re-append the cached response when the request has finished —
			// the retrying host watches the log only from its retry onward
			// — and never re-execute; a copy of a request still running
			// gets that run's answer.
			d.metrics.Counter(metrics.DaemonDeduped).Inc()
			if inCache {
				replays = append(replays, cached)
				replayIDs = append(replayIDs, rec.ID)
			}
			continue
		}
		queued[rec.ID] = true
		reqs = append(reqs, rec)
	}
	d.mu.Unlock()

	for i, c := range replays {
		d.respond(ctx, c.Module, replayIDs[i], c.Status, c.Payload)
	}
	return reqs
}

// await waits for one admitted request and answers it (step 1 of
// Fig. 5's result return). It waits past ctx: the handle always finishes
// (the scheduler cancels a running job with ctx and fails queued ones
// when its Run exits), and a module that completed as the daemon shut
// down must still get its DONE journaled, or the next life re-runs it.
func (d *Daemon) await(ctx context.Context, module, reqID string, h *sched.Handle) {
	payload, err := h.Wait(context.WithoutCancel(ctx))
	if err != nil && ctx.Err() != nil {
		// The daemon is shutting down mid-execution. Answering now would
		// turn the crash into a spurious module error at the host; leave
		// the intent open instead, so the restarted daemon re-runs it.
		d.metrics.Counter(metrics.DaemonAborted).Inc()
		return
	}
	status := StatusOK
	if err != nil {
		status, payload = StatusError, []byte(err.Error())
		d.metrics.Counter(metrics.DaemonErrors).Inc()
	}
	d.finish(ctx, module, reqID, status, payload)
}

// finish journals a completed execution, caches it for dedupe, and
// appends the response. DONE is journaled BEFORE the response append:
// should the daemon die in between, the restarted daemon replays the
// cached result instead of running the module a second time.
func (d *Daemon) finish(ctx context.Context, module, reqID, status string, payload []byte) {
	if err := d.journal.Done(reqID, module, status, payload); err != nil {
		d.metrics.Counter(metrics.DaemonJournalErrors).Inc()
	}
	d.mu.Lock()
	d.cacheLocked(reqID, CachedResponse{Module: module, Status: status, Payload: payload})
	d.mu.Unlock()
	// Group commit (fam v2): the batcher appends the record with a batch
	// of its peers and journals RESP itself once the batch lands. DONE is
	// already journaled above, so the crash-safety story is unchanged.
	res := Record{Kind: KindResponse, ID: reqID, Status: status, Payload: payload}
	line, err := res.Marshal()
	if err != nil {
		d.metrics.Counter(metrics.DaemonMarshalErrors).Inc()
		return
	}
	// submit marked the ID responded when it admitted the request.
	_ = d.respBatcherFor(module).add(ctx, reqID, line) // detached: never blocks, never fails
}

// cacheLocked inserts into the bounded dedupe/replay cache; the caller
// holds d.mu (NewDaemon, which is single-threaded, may call it unlocked).
func (d *Daemon) cacheLocked(id string, c CachedResponse) {
	if _, exists := d.completed[id]; !exists {
		d.cacheOrder = append(d.cacheOrder, id)
	}
	d.completed[id] = c
	for len(d.cacheOrder) > maxCachedResponses {
		evict := d.cacheOrder[0]
		d.cacheOrder = d.cacheOrder[1:]
		delete(d.completed, evict)
	}
}

// respond appends the response record for one request and marks it
// answered. It reports whether the record reached the log.
func (d *Daemon) respond(ctx context.Context, module, reqID, status string, payload []byte) bool {
	res := Record{Kind: KindResponse, ID: reqID, Status: status, Payload: payload}
	line, err := res.Marshal()
	if err != nil {
		d.metrics.Counter(metrics.DaemonMarshalErrors).Inc()
		return false
	}
	d.mu.Lock()
	d.responded[reqID] = struct{}{}
	d.mu.Unlock()
	return d.appendResponse(ctx, module, line)
}

// appendResponse appends one marshalled response record under retryShare;
// its leading newline makes a retry after a torn attempt safe. A final
// failure is counted in smartfam.respond_errors (the reply is then lost
// until a restart or host retry replays it from the journal cache).
func (d *Daemon) appendResponse(ctx context.Context, module string, line []byte) bool {
	err := retryShare(ctx, func() error {
		err := d.fs.Append(LogName(module), line)
		if err != nil {
			d.metrics.Counter(metrics.DaemonAppendErrors).Inc()
		}
		return err
	})
	if err != nil {
		d.metrics.Counter(metrics.SmartfamRespondErrors).Inc()
		return false
	}
	return true
}

// submit hands one request to the scheduler (steps 3-4 of Fig. 5 under
// admission control) and journals its INTENT once admitted to the queue.
// It returns nil when the request was not queued: shed by a full queue,
// or refused by a scheduler that stopped with the daemon.
func (d *Daemon) submit(ctx context.Context, module string, req Record) *sched.Handle {
	d.metrics.Counter(metrics.DaemonRequests).Inc()
	in, factor := int64(0), 0.0
	if d.estimate != nil {
		in, factor = d.estimate(module, req.Payload)
	}
	h, err := d.sched.Submit(ctx, &sched.Job{
		ID:              req.ID,
		Tenant:          module,
		Module:          module,
		Payload:         req.Payload,
		InputBytes:      in,
		FootprintFactor: factor,
	})
	if errors.Is(err, sched.ErrQueueFull) {
		d.metrics.Counter(metrics.DaemonQueueFull).Inc()
		d.shed(ctx, module, req.ID, err)
		return nil
	}
	if err != nil {
		// Only a stopped scheduler refuses a named module: shutdown.
		d.metrics.Counter(metrics.DaemonAborted).Inc()
		return nil
	}
	if err := d.journal.Intent(req.ID, module, req.Pos); err != nil {
		d.metrics.Counter(metrics.DaemonJournalErrors).Inc()
	}
	// Admitted means answered or being answered: a copy that re-lands while
	// the request runs — a torn request batch the host retried whole — is
	// deduped by the next drain, never run a second time.
	d.mu.Lock()
	d.responded[req.ID] = struct{}{}
	d.mu.Unlock()
	return h
}

// shed tells the caller the queue turned its request away. The rejection
// is backpressure, not a verdict: it is not journaled, cached or marked
// responded, so a resubmit under the same ID is admitted afresh once the
// queue has room, and a restarted daemon neither re-runs the shed request
// (no INTENT was written) nor answers its resubmit from the cache.
func (d *Daemon) shed(ctx context.Context, module, reqID string, err error) {
	res := Record{Kind: KindResponse, ID: reqID, Status: StatusError, Payload: []byte(err.Error())}
	line, merr := res.Marshal()
	if merr != nil {
		d.metrics.Counter(metrics.DaemonMarshalErrors).Inc()
		return
	}
	d.appendResponse(ctx, module, line)
}

// isShed reports whether a response record carries a queue-full shed
// rather than an answer.
func isShed(rec Record) bool {
	return rec.Status == StatusError && sched.IsQueueFullMessage(string(rec.Payload))
}

// QueueStatusName is the share file carrying the published status
// snapshot (JSON): the scheduler's queue state plus, under Extra, every
// counter and gauge of the daemon's metrics registry. Like the heartbeat
// it is not a module log, so discovery ignores it; mcsdctl's queue,
// journal and fam verbs read it.
const QueueStatusName = ".queue"

// DefaultQueueStatusInterval is how often the status snapshot is
// republished.
const DefaultQueueStatusInterval = 250 * time.Millisecond

// publishQueueStatus rewrites QueueStatusName until ctx is done.
func (d *Daemon) publishQueueStatus(ctx context.Context) error {
	write := func() {
		st := d.sched.Status()
		// The whole registry rides along: mcsdctl's journal and fam verbs
		// read their counters, and the push gauge, from it by name.
		st.Extra = d.metrics.Values()
		data, err := sched.MarshalStatus(st)
		if err != nil {
			return
		}
		if err := d.fs.Create(QueueStatusName); err != nil {
			return
		}
		_ = d.fs.Append(QueueStatusName, data)
	}
	write()
	ticker := time.NewTicker(d.statusInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			write()
		}
	}
}
