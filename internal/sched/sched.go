// Package sched is the SD node's control plane between "request arrived"
// and "engine runs": the one path every smartFAM invocation takes to a
// module, with admission control and backpressure.
//
// The paper's McSD daemon invokes one module per smartFAM log write with
// no notion of concurrent callers. A node serving heavy traffic needs
// three things the raw daemon lacks, and this package provides them:
//
//   - Ordering. Submitted jobs queue per tenant (the daemon uses one
//     tenant per module); dispatch interleaves tenants fairly — FIFO
//     within a tenant, the tenant served least so far first across them —
//     so one busy module cannot starve the others.
//   - Memory-aware admission. A job's resident footprint is estimated as
//     input size × workload footprint factor (word count 3×, string match
//     2× — DESIGN.md §5b) and charged against the node's memsim budget of
//     usable RAM. Jobs whose footprint does not currently fit wait in the
//     queue rather than co-scheduling into the swap-thrash region; smaller
//     jobs may be admitted past them in the meantime.
//   - Backpressure. The queue is bounded. When it is full, Submit fails
//     fast with ErrQueueFull, which the daemon surfaces to the remote
//     caller through the smartFAM result record instead of silently
//     stalling the share.
//
// A job is withdrawn by cancelling the context it was submitted with: a
// queued job then never reaches the engine, a running one sees its
// context cancelled. Queue depth, wait time, and admission decisions are
// counted in an internal/metrics registry, and the queued/running phases
// are recorded as spans in internal/trace so the Gantt renderer shows
// queueing delay.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mcsd/internal/memsim"
	"mcsd/internal/metrics"
	"mcsd/internal/trace"
)

// Errors surfaced by Submit and Handle.Wait.
var (
	// ErrQueueFull is the backpressure signal: the bounded queue is at
	// capacity and the caller should retry later or go elsewhere. It
	// crosses the smartFAM wire as message text; use IsQueueFullMessage
	// to recognise it on the far side.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrCancelled reports a job whose submit context was cancelled
	// before or during execution.
	ErrCancelled = errors.New("sched: job cancelled")
	// ErrStopped reports a scheduler whose Run loop has exited.
	ErrStopped = errors.New("sched: scheduler stopped")
)

// IsQueueFullMessage reports whether an error message that crossed a
// process or wire boundary (and so lost its typed chain) originated from
// ErrQueueFull.
func IsQueueFullMessage(msg string) bool {
	return strings.Contains(msg, ErrQueueFull.Error())
}

// Executor runs one admitted job and returns its result payload. The
// scheduler recovers panics, so a crashing module fails its job rather
// than the node.
type Executor func(ctx context.Context, job *Job) ([]byte, error)

// Estimator prices a module invocation before it runs: the input size in
// bytes and the workload's resident-footprint factor (multiple of input
// size). Zero input bytes means "unknown, admit freely".
type Estimator func(module string, params []byte) (inputBytes int64, footprintFactor float64)

// Job describes one submitted unit of work.
type Job struct {
	// ID is assigned by Submit when empty.
	ID string
	// Tenant groups jobs for fair ordering; empty means "default".
	Tenant string
	// Module names the engine entry point; it reaches the Executor.
	Module string
	// Payload is the opaque parameter blob handed to the Executor.
	Payload []byte
	// InputBytes and FootprintFactor size the job's resident footprint
	// for admission control (footprint = InputBytes × FootprintFactor,
	// factor ≤ 0 meaning 1). InputBytes ≤ 0 bypasses admission.
	InputBytes      int64
	FootprintFactor float64

	seq uint64 // submit order, fixes FIFO within a tenant
}

// footprint returns the job's estimated resident set in bytes.
func (j *Job) footprint() int64 {
	if j.InputBytes <= 0 {
		return 0
	}
	f := j.FootprintFactor
	if f <= 0 {
		f = 1
	}
	return int64(float64(j.InputBytes) * f)
}

// Defaults for Config's zero values.
const (
	// DefaultMaxQueueDepth bounds the queue when Config leaves it unset.
	DefaultMaxQueueDepth = 64
	// DefaultWorkers matches the duo-core SD node.
	DefaultWorkers = 2
)

// Config parametrizes a Scheduler.
type Config struct {
	// MaxQueueDepth bounds jobs waiting for admission (default 64).
	// Submissions beyond it fail with ErrQueueFull.
	MaxQueueDepth int
	// Workers is the number of concurrent job executions (default 2,
	// the duo-core SD node).
	Workers int
	// Memory, when set, supplies the admission budget: the node's usable
	// RAM per its memsim configuration. Admitted footprints never sum
	// past it, keeping co-scheduled jobs out of the swap-thrash region.
	// Without it, admission control is disabled.
	Memory *memsim.Accountant
	// Metrics receives scheduler counters/gauges/timers (fresh registry
	// when nil).
	Metrics *metrics.Registry
	// Tracer records queued/running spans per job (nil = no tracing).
	Tracer *trace.Tracer
}

func (c Config) depth() int {
	if c.MaxQueueDepth > 0 {
		return c.MaxQueueDepth
	}
	return DefaultMaxQueueDepth
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return DefaultWorkers
}

// tenant is one fair-queuing flow.
type tenant struct {
	name   string
	served int64     // dispatches received: the fair-queuing clock
	queue  []*Handle // FIFO
}

// Scheduler is the job scheduler. Create with New, drive with Run.
type Scheduler struct {
	cfg    Config
	exec   Executor
	budget int64

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	queued   int
	running  int
	reserved int64
	seq      uint64
	stopped  bool

	metrics *metrics.Registry
}

// New returns a scheduler executing admitted jobs with exec. Nothing
// dispatches until Run is called.
func New(cfg Config, exec Executor) *Scheduler {
	s := &Scheduler{
		cfg:     cfg,
		exec:    exec,
		tenants: make(map[string]*tenant),
		metrics: cfg.Metrics,
	}
	if cfg.Memory != nil {
		s.budget = cfg.Memory.Config().Usable()
	}
	if s.metrics == nil {
		s.metrics = metrics.NewRegistry()
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Metrics returns the scheduler's metrics registry.
func (s *Scheduler) Metrics() *metrics.Registry { return s.metrics }

// Submit enqueues a job. It fails fast with ErrQueueFull when the bounded
// queue is at capacity and ErrStopped after Run has exited; otherwise it
// returns a Handle to wait on. ctx governs the job's whole life:
// cancelling it while the job is queued prevents it from ever reaching
// the engine, and cancelling it while the job runs cancels the
// executor's context.
func (s *Scheduler) Submit(ctx context.Context, job *Job) (*Handle, error) {
	if job == nil || job.Module == "" {
		return nil, errors.New("sched: job must name a module")
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, ErrStopped
	}
	if s.queued >= s.cfg.depth() {
		s.mu.Unlock()
		s.metrics.Counter(metrics.SchedQueueFullRejects).Inc()
		return nil, fmt.Errorf("%w: %d jobs waiting", ErrQueueFull, s.cfg.depth())
	}
	s.seq++
	job.seq = s.seq
	if job.ID == "" {
		job.ID = fmt.Sprintf("job-%06d", s.seq)
	}
	h := &Handle{
		job:        job,
		ctx:        ctx,
		done:       make(chan struct{}),
		enqueuedAt: time.Now(),
	}
	h.span = s.cfg.Tracer.Start(trace.SpanSchedPrefix + job.Module + " " + job.ID)
	h.queueSpan = h.span.Child(trace.SpanQueued)
	t := s.tenantLocked(job.Tenant)
	t.queue = append(t.queue, h)
	s.queued++
	s.metrics.Gauge(metrics.SchedQueueDepth).Set(int64(s.queued))
	s.metrics.Counter(metrics.SchedSubmitted).Inc()
	s.cond.Broadcast()
	s.mu.Unlock()
	return h, nil
}

func (s *Scheduler) tenantLocked(name string) *tenant {
	if name == "" {
		name = "default"
	}
	t, ok := s.tenants[name]
	if !ok {
		// A new flow starts at the most service any flow has received so
		// it cannot claim a catch-up burst against established tenants.
		var maxServed int64
		for _, other := range s.tenants {
			maxServed = max(maxServed, other.served)
		}
		t = &tenant{name: name, served: maxServed}
		s.tenants[name] = t
	}
	return t
}

// Run dispatches jobs on cfg.Workers goroutines until ctx is done, then
// fails every still-queued job with ErrStopped and returns ctx's error.
// Run is the scheduler's only dispatch loop; call it exactly once.
func (s *Scheduler) Run(ctx context.Context) error {
	stopWake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stopWake()

	var wg sync.WaitGroup
	for i := 0; i < s.cfg.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				h := s.next(ctx)
				if h == nil {
					return
				}
				s.execute(ctx, h)
			}
		}()
	}
	wg.Wait()

	s.mu.Lock()
	s.stopped = true
	var orphans []*Handle
	for _, t := range s.tenants {
		orphans = append(orphans, t.queue...)
		t.queue = nil
	}
	s.queued = 0
	s.metrics.Gauge(metrics.SchedQueueDepth).Set(0)
	s.mu.Unlock()
	for _, h := range orphans {
		h.finish(nil, fmt.Errorf("%w: %w", ErrStopped, context.Cause(ctx)))
	}
	return ctx.Err()
}

// next blocks until a job can be admitted (or ctx ends) and returns it
// with its memory reservation taken.
func (s *Scheduler) next(ctx context.Context) *Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil
		}
		if h := s.selectLocked(); h != nil {
			fp := h.job.footprint()
			s.reserved += fp
			h.reservedBytes = fp
			s.running++
			s.metrics.Gauge(metrics.SchedRunning).Set(int64(s.running))
			s.metrics.Gauge(metrics.SchedReservedBytes).Set(s.reserved)
			s.metrics.Timer(metrics.SchedWait).Observe(time.Since(h.enqueuedAt))
			h.queueSpan.Finish()
			return h
		}
		s.cond.Wait()
	}
}

// selectLocked picks the next admissible job: each tenant's head, ordered
// by (dispatches served asc, submit order asc), first one whose footprint
// fits the remaining memory budget. Skipping a too-big job lets small
// jobs run alongside what is already admitted — the big job waits for
// memory, it is not failed. Jobs whose submit context is done are reaped
// here, before they can reach the engine.
func (s *Scheduler) selectLocked() *Handle {
	var cands []*tenant
	for _, t := range s.tenants {
		kept := t.queue[:0]
		for _, h := range t.queue {
			if err := h.ctx.Err(); err != nil {
				s.queued--
				s.metrics.Counter(metrics.SchedCancelled).Inc()
				h.finish(nil, fmt.Errorf("%w in queue: %w", ErrCancelled, err))
				continue
			}
			kept = append(kept, h)
		}
		t.queue = kept
		if len(kept) > 0 {
			cands = append(cands, t)
		}
	}
	s.metrics.Gauge(metrics.SchedQueueDepth).Set(int64(s.queued))
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.served != b.served {
			return a.served < b.served
		}
		return a.queue[0].job.seq < b.queue[0].job.seq
	})
	for _, t := range cands {
		h := t.queue[0]
		if !s.fitsLocked(h.job.footprint()) {
			s.metrics.Counter(metrics.SchedAdmissionDeferrals).Inc()
			continue
		}
		t.queue = t.queue[1:]
		t.served++
		s.queued--
		s.metrics.Gauge(metrics.SchedQueueDepth).Set(int64(s.queued))
		return h
	}
	return nil
}

// fitsLocked is the admission predicate: the footprint fits the remaining
// budget, or there is no budget, or the job is so large it could never
// co-schedule — then it is admitted alone (running it solo is the best
// the scheduler can do; out-of-core partitioning is the real fix).
func (s *Scheduler) fitsLocked(fp int64) bool {
	if s.budget <= 0 || fp == 0 {
		return true
	}
	if s.reserved+fp <= s.budget {
		return true
	}
	return fp > s.budget && s.reserved == 0 && s.running == 0
}

// execute runs one admitted job to completion. The executor's context
// ends with the job's submit context or with the scheduler's Run.
func (s *Scheduler) execute(runCtx context.Context, h *Handle) {
	defer func() {
		s.mu.Lock()
		s.reserved -= h.reservedBytes
		s.running--
		s.metrics.Gauge(metrics.SchedRunning).Set(int64(s.running))
		s.metrics.Gauge(metrics.SchedReservedBytes).Set(s.reserved)
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	ctx, cancel := context.WithCancel(h.ctx)
	defer cancel()
	stop := context.AfterFunc(runCtx, cancel)
	defer stop()

	runSpan := h.span.Child(trace.SpanRunning)
	runStart := time.Now()
	payload, err := runGuarded(ctx, s.exec, h.job)
	runSpan.Finish()
	s.metrics.Timer(metrics.SchedRun).Observe(time.Since(runStart))

	switch {
	case err == nil:
		s.metrics.Counter(metrics.SchedCompleted).Inc()
	case h.ctx.Err() != nil:
		s.metrics.Counter(metrics.SchedCancelled).Inc()
		err = fmt.Errorf("%w: %w", ErrCancelled, err)
	default:
		s.metrics.Counter(metrics.SchedFailed).Inc()
	}
	h.finish(payload, err)
}

func runGuarded(ctx context.Context, exec Executor, job *Job) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: job %s (%s) panicked: %v", job.ID, job.Module, r)
		}
	}()
	return exec(ctx, job)
}
