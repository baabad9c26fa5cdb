package nfs

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"mcsd/internal/smartfam"
)

// The client side of the notify lane: Watch implements smartfam.WatchFS by
// registering one server-side watch per connection (prefix "", i.e.
// everything) and fanning the unsolicited NotifyTag frames out to local
// per-prefix streams. Keeping the server registration maximal means any
// number of local subscriptions share one OpWatch and the demux filters by
// prefix locally.
//
// Stream-loss semantics: when the connection fails (or the client closes),
// every local stream's channel is closed. Consumers treat the close as
// "fall back to polling, then re-Watch"; the next Watch call re-arms the
// server registration on the redialed connection.

// watchStreamDepth bounds each local stream's event buffer; like the
// server's queue, a full buffer drops (the consumer rescans from its own
// offset, so a drop is a latency hiccup, not data loss).
const watchStreamDepth = 256

// clientWatch is one local subscription.
type clientWatch struct {
	c      *Client
	prefix string
	ch     chan smartfam.WatchEvent
	closed bool // guarded by c.watchMu
}

// Events implements smartfam.WatchStream.
func (w *clientWatch) Events() <-chan smartfam.WatchEvent { return w.ch }

// Close implements smartfam.WatchStream.
func (w *clientWatch) Close() error {
	c := w.c
	c.watchMu.Lock()
	if !w.closed {
		w.closed = true
		delete(c.watches, w)
		close(w.ch)
	}
	c.watchMu.Unlock()
	return nil
}

// Watch implements smartfam.WatchFS: it subscribes to change notifications
// for files whose share-relative name starts with prefix. A pre-watch
// server's unknown-op answer becomes ErrWatchUnsupported, letting callers
// fall back to polling.
func (c *Client) Watch(prefix string) (smartfam.WatchStream, error) {
	if err := c.armWatch(); err != nil {
		return nil, err
	}
	w := &clientWatch{c: c, prefix: prefix, ch: make(chan smartfam.WatchEvent, watchStreamDepth)}
	c.watchMu.Lock()
	if c.watches == nil {
		c.watches = make(map[*clientWatch]struct{})
	}
	c.watches[w] = struct{}{}
	c.watchMu.Unlock()
	return w, nil
}

// armWatch ensures the current connection carries a live server-side watch
// registration, issuing the OpWatch RPC when the connection (generation)
// has changed since the last registration.
func (c *Client) armWatch() error {
	c.mu.Lock()
	gen := c.gen
	live := c.conn != nil
	c.mu.Unlock()
	c.watchMu.Lock()
	armed := c.watchArmed && live && c.watchGen == gen
	c.watchMu.Unlock()
	if armed {
		return nil
	}
	// Watch everything server-side; local streams filter by prefix.
	if err := c.doDiscard(&Request{Op: OpWatch}, false); err != nil {
		if errors.Is(err, ErrRemote) {
			return fmt.Errorf("%w: %v", ErrWatchUnsupported, err)
		}
		return err
	}
	c.mu.Lock()
	gen = c.gen
	c.mu.Unlock()
	c.watchMu.Lock()
	c.watchArmed, c.watchGen = true, gen
	c.watchMu.Unlock()
	return nil
}

// deliverNotify routes one NotifyTag frame to every matching local stream.
// Called from the demux goroutine; the frame is freed here.
func (c *Client) deliverNotify(resp *Response) {
	var name string
	if len(resp.Names) > 0 {
		name = resp.Names[0]
	}
	gen := resp.Gen
	resp.free()
	if name == "" {
		return
	}
	c.met.watchEvents.Inc()
	c.watchMu.Lock()
	for w := range c.watches {
		if !strings.HasPrefix(name, w.prefix) {
			continue
		}
		select {
		case w.ch <- smartfam.WatchEvent{Name: name, Gen: gen}:
		default:
			// Consumer lagging: drop, like the polling Watcher does. The
			// consumer re-reads from its own offset.
		}
	}
	c.watchMu.Unlock()
}

// closeWatches tears down every local stream (connection lost or client
// closed); consumers observe the channel close and fall back to polling.
func (c *Client) closeWatches() {
	c.watchMu.Lock()
	ws := c.watches
	c.watches = nil
	c.watchArmed = false
	for w := range ws {
		w.closed = true
		close(w.ch)
	}
	c.watchMu.Unlock()
}

// StatGen implements smartfam.GenStat: Stat plus the server's change
// generation for the file (0 from servers that never mutated it, or from
// mutations that bypassed the server).
func (c *Client) StatGen(name string) (int64, time.Time, uint64, error) {
	resp, err := c.do(&Request{Op: OpStat, Name: name}, true)
	if err != nil {
		return 0, time.Time{}, 0, err
	}
	size, mtime, gen := resp.Size, time.Unix(0, resp.MTimeNs), resp.Gen
	resp.free()
	return size, mtime, gen, nil
}

var (
	_ smartfam.WatchFS = (*Client)(nil)
	_ smartfam.GenStat = (*Client)(nil)
)
