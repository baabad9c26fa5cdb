package smartfam

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// HoldNextBatch makes the next group-commit leader, on either side of the
// front door, wait in place of its yield until its batch holds n records
// (or 10 s pass); every later leader yields as usual. Cleanup restores the
// yield.
func HoldNextBatch(t *testing.T, n int) {
	var claimed atomic.Bool
	hold := func(g *groupCommit, b *commitBatch) {
		if !claimed.CompareAndSwap(false, true) {
			runtime.Gosched()
			return
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			g.mu.Lock()
			joined := len(b.ids)
			g.mu.Unlock()
			if joined >= n {
				return
			}
		}
	}
	testYield.Store(&hold)
	t.Cleanup(func() { testYield.Store(nil) })
}

// Modules lists the modules available on the SD node, discovered from the
// log files present on the share.
func (c *Client) Modules() ([]string, error) {
	names, err := c.fs.List()
	if err != nil {
		return nil, err
	}
	var mods []string
	for _, n := range names {
		if m, ok := ModuleFromLog(n); ok {
			mods = append(mods, m)
		}
	}
	return mods, nil
}
