package sched

import (
	"context"
	"time"

	"mcsd/internal/trace"
)

// Handle tracks one submitted job.
type Handle struct {
	job *Job
	ctx context.Context

	done          chan struct{}
	payload       []byte
	err           error
	enqueuedAt    time.Time
	reservedBytes int64
	span          *trace.Span
	queueSpan     *trace.Span
}

// Wait blocks until the job finishes (returning its payload or error) or
// ctx is done. A Wait that times out does not withdraw the job; cancel
// the context it was submitted with for that.
func (h *Handle) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.done:
		return h.payload, h.err
	}
}

// finish records the terminal result. Each job finishes exactly once:
// a queued job is either dispatched, reaped, or orphaned by Run's exit.
func (h *Handle) finish(payload []byte, err error) {
	h.payload, h.err = payload, err
	h.queueSpan.Finish()
	h.span.Finish()
	close(h.done)
}
