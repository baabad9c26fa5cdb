package nfs

import (
	"net"
	"time"
)

// SetRedial installs (or replaces) the function used to re-establish a
// dropped connection.
func (c *Client) SetRedial(fn func() (net.Conn, error)) {
	c.mu.Lock()
	c.redial = fn
	c.mu.Unlock()
}

// SetRedialBackoff overrides the reconnect backoff window (initial delay
// after a failed redial, doubling up to max). Zero values keep defaults.
func (c *Client) SetRedialBackoff(initial, max time.Duration) {
	c.mu.Lock()
	if initial > 0 {
		c.backoffInit = initial
	}
	if max > 0 {
		c.backoffMax = max
	}
	c.mu.Unlock()
}

// Reconnects reports how many times the client has successfully redialed.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}
