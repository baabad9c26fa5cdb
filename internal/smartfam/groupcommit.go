package smartfam

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Group-commit bounds. A batch closes at DefaultBatchBytes of encoded
// records, so a batch of two or more records always fits an inline notify.
// At most maxFlushesInFlight flushes of one log are in flight at once: the
// depth of the nfs client's pipeline window (nfs.DefaultWindow), past
// which a flush would only queue for a wire slot. A leader that finds the
// bound reached waits for a flush to land with its batch still open, so
// the records that arrive meanwhile ride along.
const (
	DefaultBatchBytes  = 64 << 10
	maxFlushesInFlight = 32
)

// groupCommit coalesces the records concurrent callers add to one module
// log into a single share append per batch. The caller whose record opens
// a batch is its leader: the leader yields the processor once, so callers
// that are already runnable join its batch, then detaches the batch and
// hands it to flush — exactly once per batch. There is no timer: a lone
// record goes after one yield. A burst that outruns the yields batches
// behind the in-flight bound instead: its first maxFlushesInFlight flushes
// go at once, and the next batch gathers until one of them lands. A record
// that would push the open batch past maxBytes closes it and leads the
// next one. Record framing (leading newline + CRC) makes concatenated
// batches safe; how a torn flush is retried is the flush's business.
//
// Both halves of the fam v2 front door run one: the host client blocks
// every member on the flush result; the daemon's responder sets detached,
// so the leader runs on its own goroutine and add never parks a worker
// behind the flush.
type groupCommit struct {
	maxBytes int
	detached bool
	// flush lands one detached batch: buf is the members' records
	// concatenated in join order, ids their correlation IDs.
	flush func(ctx context.Context, buf []byte, ids []string) error

	mu       sync.Mutex
	cur      *commitBatch  // the open batch; nil between batches
	inflight chan struct{} // semaphore: one token per flush in flight

	leaders sync.WaitGroup // detached leaders still gathering or flushing
}

// commitBatch is one in-flight group commit.
type commitBatch struct {
	buf  []byte
	ids  []string
	done chan struct{} // closed after the flush; err is set first
	err  error
}

// testYield, when set, is what a leader calls in place of its yield, with
// its batcher and batch: tests hold a batch open through it until it has
// the members they want. It is never set outside tests.
var testYield atomic.Pointer[func(*groupCommit, *commitBatch)]

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
		batch = nil
	}
	leader := batch == nil
	if leader {
		batch = &commitBatch{done: make(chan struct{})}
		g.cur = batch
		if g.inflight == nil {
			g.inflight = make(chan struct{}, maxFlushesInFlight)
		}
	}
	batch.buf = append(batch.buf, line...)
	batch.ids = append(batch.ids, id)
	if len(batch.buf) >= g.maxBytes {
		g.cur = nil // next record opens a fresh batch
	}
	g.mu.Unlock()

	if g.detached {
		if leader {
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

// lead yields once, takes an in-flight slot (waiting, batch still open,
// while the log has maxFlushesInFlight flushes out), detaches the batch
// and flushes it. The flush runs even under a cancelled ctx rather than
// strand the followers' records.
func (g *groupCommit) lead(ctx context.Context, batch *commitBatch) {
	if hold := testYield.Load(); hold != nil {
		(*hold)(g, batch)
	} else {
		runtime.Gosched()
	}
	//mcsdlint:allow chanbound -- the in-flight bound IS the wait: every slot is released when its flush returns, and a flush is bounded by retryShare's attempts, so the wait ends with some flush already out
	g.inflight <- struct{}{}
	defer func() { <-g.inflight }()
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
