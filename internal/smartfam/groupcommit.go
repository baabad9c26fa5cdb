package smartfam

import (
	"context"
	"sync"
	"time"
)

// Group-commit defaults: a batch flushes at DefaultBatchBytes of encoded
// records or DefaultBatchDelay after its first record, whichever comes
// first. The delay is deliberately small against the modelled 20 ms RTT —
// batching should buy throughput, not visible latency.
const (
	DefaultBatchBytes = 64 << 10
	DefaultBatchDelay = time.Millisecond
)

// groupCommit coalesces the records concurrent callers add to one module
// log into a single share append per batch window. The caller whose record
// opens a batch is its leader: the leader waits out the window (byte bound
// hit, delay elapsed, or its ctx cancelled), detaches the batch and hands
// it to flush — exactly once per batch. Record framing (leading newline +
// CRC) makes concatenated batches safe; how a torn flush is retried is the
// flush's business.
//
// Both halves of the fam v2 front door run one: the host client blocks
// every member on the flush result; the daemon's responder sets detached,
// so the leader runs on its own goroutine and add never parks a worker
// behind the batch window.
type groupCommit struct {
	maxBytes int
	maxDelay time.Duration
	detached bool
	// flush lands one detached batch: buf is the members' records
	// concatenated in join order, ids their correlation IDs.
	flush func(ctx context.Context, buf []byte, ids []string) error

	mu  sync.Mutex
	cur *commitBatch // the open batch; nil between batches

	leaders sync.WaitGroup // detached leaders still waiting or flushing
}

// commitBatch is one in-flight group commit.
type commitBatch struct {
	buf  []byte
	ids  []string
	full chan struct{} // closed when buf reaches the byte bound
	done chan struct{} // closed after the flush; err is set first
	err  error
}

// add joins (or opens) the current batch. Detached, it returns nil at
// once: the record's fate is the leader's business. Otherwise it blocks
// until the batch's flush resolves and returns its result; a caller whose
// ctx expires leaves early, but its record stays in the batch and may
// still land.
func (g *groupCommit) add(ctx context.Context, id string, line []byte) error {
	g.mu.Lock()
	batch := g.cur
	if batch != nil && len(batch.buf)+len(line) > g.maxBytes {
		// The record would push the open batch past the bound: close that
		// batch as it is and lead the next one, so a batch of two or more
		// records never outgrows maxBytes (and, at the default, always fits
		// an inline notify). A lone over-bound record still goes alone.
		close(batch.full)
		batch = nil
	}
	leader := batch == nil
	if leader {
		batch = &commitBatch{full: make(chan struct{}), done: make(chan struct{})}
		g.cur = batch
	}
	batch.buf = append(batch.buf, line...)
	batch.ids = append(batch.ids, id)
	if len(batch.buf) >= g.maxBytes {
		close(batch.full)
		g.cur = nil // next record opens a fresh batch
	}
	g.mu.Unlock()

	if g.detached {
		if leader {
			// lead performs exactly one flush and returns: the window wait
			// is capped by maxDelay and ctx cancellation short-circuits it.
			g.leaders.Add(1)
			go func() {
				defer g.leaders.Done()
				g.lead(ctx, batch)
			}()
		}
		return nil
	}
	if leader {
		g.lead(ctx, batch)
	}
	select {
	case <-batch.done:
		return batch.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lead waits out the batch window, detaches the batch and flushes it. A
// cancelled leader flushes what has gathered rather than strand the
// followers' records behind it.
func (g *groupCommit) lead(ctx context.Context, batch *commitBatch) {
	timer := time.NewTimer(g.maxDelay)
	select {
	case <-batch.full:
	case <-timer.C:
	case <-ctx.Done():
	}
	timer.Stop()
	g.mu.Lock()
	if g.cur == batch {
		g.cur = nil
	}
	g.mu.Unlock()
	// After detach no add can touch the batch: joins happen under g.mu and
	// only against g.cur.
	batch.err = g.flush(ctx, batch.buf, batch.ids)
	close(batch.done)
}
