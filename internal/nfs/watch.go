package nfs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mcsd/internal/smartfam"
)

// The client side of the notify lane: Watch implements smartfam.WatchFS by
// registering ONE server-side watch per connection that carries the set of
// prefixes its local streams watch, and fanning the unsolicited NotifyTag
// frames out to the matching streams. The set is re-sent whenever Watch or
// Close changes it, so the server ships frames only for files some local
// stream wants — a host routing two module logs hears nothing of the
// share's .queue and .heartbeat rewrites, whose inline bytes would
// otherwise ride its link.
//
// The connection's own appends never come back as frames: the server
// withholds their notifies and Append hands the bytes it sent to the
// matching local streams itself, at the offset the response reports.
//
// Stream-loss semantics: when the connection fails (or the client closes),
// every local stream's channel is closed. Consumers treat the close as
// "fall back to polling, then re-Watch"; the next Watch call re-arms the
// server registration, with the whole current set, on the redialed
// connection.

// watchStreamDepth bounds each local stream's event buffer; like the
// server's queue, a full buffer drops its oldest event (counted in
// nfs.watch.dropped), so the newest — whose offset exposes the gap — is
// always delivered and the consumer reads the dropped change itself.
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

// Close implements smartfam.WatchStream. The server registration shrinks
// with the set, but only on a live connection: Close never redials.
func (w *clientWatch) Close() error {
	if w.detach() {
		_ = w.c.syncWatch(false) //nolint:errcheck // best effort: a stale superset only costs frames the demux filters
	}
	return nil
}

// detach removes the stream from the local set and closes its channel;
// false when it was already gone.
func (w *clientWatch) detach() bool {
	c := w.c
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if w.closed {
		return false
	}
	w.closed = true
	delete(c.watches, w)
	close(w.ch)
	return true
}

// Watch implements smartfam.WatchFS: it subscribes to change notifications
// for files whose share-relative name starts with prefix. A server that
// cannot watch answers with an unknown-op error, which becomes
// ErrWatchUnsupported, letting callers fall back to polling.
func (c *Client) Watch(prefix string) (smartfam.WatchStream, error) {
	w := &clientWatch{c: c, prefix: prefix, ch: make(chan smartfam.WatchEvent, watchStreamDepth)}
	c.watchMu.Lock()
	if c.watches == nil {
		c.watches = make(map[*clientWatch]struct{})
	}
	c.watches[w] = struct{}{}
	c.watchMu.Unlock()
	if err := c.syncWatch(true); err != nil {
		w.detach()
		return nil, err
	}
	return w, nil
}

// syncWatch makes the current connection's server registration carry
// exactly the local prefix set, issuing OpWatch when the connection
// (generation) or the set changed since the last registration. armMu
// orders concurrent re-registrations so the server ends on the latest
// set. With dial false a dead connection is left alone.
func (c *Client) syncWatch(dial bool) error {
	c.armMu.Lock()
	defer c.armMu.Unlock()
	c.mu.Lock()
	gen, live := c.gen, c.conn != nil
	c.mu.Unlock()
	if !live && !dial {
		return nil
	}
	c.watchMu.Lock()
	set := c.prefixSetLocked()
	if c.watchArmed && live && c.watchGen == gen && bytes.Equal(c.watchSet, set) {
		c.watchMu.Unlock()
		return nil
	}
	c.watchMu.Unlock()
	if err := c.doDiscard(&Request{Op: OpWatch, Data: set}, false); err != nil {
		if errors.Is(err, ErrRemote) {
			return fmt.Errorf("%w: %v", ErrWatchUnsupported, err)
		}
		return err
	}
	// gen is the generation read before the RPC: a failure since bumped
	// it, so the next sync re-arms whatever connection replaced this one.
	c.watchMu.Lock()
	c.watchArmed, c.watchGen, c.watchSet = true, gen, set
	c.watchMu.Unlock()
	return nil
}

// prefixSetLocked encodes the distinct prefixes of the live local streams
// in a canonical order. Caller holds c.watchMu.
func (c *Client) prefixSetLocked() []byte {
	seen := make(map[string]bool, len(c.watches))
	var prefixes []string
	for w := range c.watches {
		if !seen[w.prefix] {
			seen[w.prefix] = true
			prefixes = append(prefixes, w.prefix)
		}
	}
	sort.Strings(prefixes)
	return encodePrefixes(prefixes)
}

// deliverNotify routes one NotifyTag frame to every matching local stream.
// Called from the demux goroutine; the frame is freed here.
func (c *Client) deliverNotify(resp *Response) {
	defer resp.free()
	if len(resp.Names) == 0 || resp.Names[0] == "" {
		return
	}
	c.fanOut(resp.Names[0], resp.Gen, resp.Size, resp.Data)
	// Counted once delivered, so a reader that sees the count can drain
	// every event it counts.
	c.met.watchEvents.Inc()
}

// deliverOwnAppend is the notify the server withheld from this connection
// for an append it made: data at off, inline up to inlineNotifyMax and bare
// above it, exactly as another connection hears the append.
func (c *Client) deliverOwnAppend(name string, id uint64, off int64, data []byte) {
	if len(data) > inlineNotifyMax {
		data = nil
	}
	c.fanOut(name, id, off, data)
}

// fanOut hands one change event to every matching local stream. Inline
// append bytes are copied once and shared, read-only, by every stream they
// reach; a full stream evicts its oldest event to take the new one.
func (c *Client) fanOut(name string, id uint64, off int64, data []byte) {
	ev := smartfam.WatchEvent{Name: name, Gen: id}
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	for w := range c.watches {
		if !strings.HasPrefix(name, w.prefix) {
			continue
		}
		if ev.Data == nil && len(data) > 0 {
			ev.Off, ev.Data = off, bytes.Clone(data)
		}
		if n := sendDropOldest(w.ch, ev); n > 0 {
			c.met.watchDropped.Add(int64(n))
		}
	}
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

// StatGen implements smartfam.GenStat: Stat plus the file's identity on
// the server, in the same reply.
func (c *Client) StatGen(name string) (int64, time.Time, uint64, error) {
	resp, err := c.do(&Request{Op: OpStat, Name: name}, true)
	if err != nil {
		return 0, time.Time{}, 0, err
	}
	size, mtime, id := resp.Size, time.Unix(0, resp.MTimeNs), resp.Gen
	resp.free()
	return size, mtime, id, nil
}

var (
	_ smartfam.WatchFS   = (*Client)(nil)
	_ smartfam.ReplaceFS = (*Client)(nil)
)
