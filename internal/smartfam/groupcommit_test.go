package smartfam

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// flushCall is one batch as the flush function saw it.
type flushCall struct {
	buf string
	ids []string
}

// waitJoined blocks until the open batch holds n records.
func waitJoined(t *testing.T, g *groupCommit, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		g.mu.Lock()
		joined := g.cur != nil && len(g.cur.ids) == n
		g.mu.Unlock()
		if joined {
			return
		}
	}
	t.Fatalf("open batch never reached %d records", n)
}

// within fails the test unless a value arrives on ch in time.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func TestGroupCommit(t *testing.T) {
	errBoom := errors.New("boom")
	bg := context.Background()
	// addAsync runs one add on its own goroutine and returns its result.
	addAsync := func(g *groupCommit, ctx context.Context, id string) <-chan error {
		res := make(chan error, 1)
		go func() { res <- g.add(ctx, id, []byte(id)) }()
		return res
	}

	cases := []struct {
		name     string
		maxBytes int
		maxDelay time.Duration
		detached bool
		flushErr error
		run      func(t *testing.T, g *groupCommit, flushed <-chan flushCall)
	}{
		{
			name:     "byte-bound close opens a fresh batch",
			maxBytes: 8, maxDelay: time.Hour,
			run: func(t *testing.T, g *groupCommit, flushed <-chan flushCall) {
				a := addAsync(g, bg, "aaaa")
				waitJoined(t, g, 1)
				b := addAsync(g, bg, "bbbb") // reaches the bound: closes the batch
				if got := within(t, flushed, "the full batch's flush"); got.buf != "aaaabbbb" ||
					!reflect.DeepEqual(got.ids, []string{"aaaa", "bbbb"}) {
					t.Fatalf("full batch flushed %+v, want aaaa+bbbb in join order", got)
				}
				for _, res := range []<-chan error{a, b} {
					if err := within(t, res, "a member of the full batch"); err != nil {
						t.Fatalf("member of the full batch: %v", err)
					}
				}
				ctx, cancel := context.WithCancel(bg)
				addAsync(g, ctx, "cccc")
				waitJoined(t, g, 1) // a batch of its own, not a late join of the closed one
				cancel()
				if got := within(t, flushed, "the fresh batch's flush"); got.buf != "cccc" {
					t.Fatalf("fresh batch flushed %+v, want cccc alone", got)
				}
			},
		},
		{
			name:     "a record that would overflow closes the batch first",
			maxBytes: 10, maxDelay: time.Hour,
			run: func(t *testing.T, g *groupCommit, flushed <-chan flushCall) {
				// Three records of 0.4 x maxBytes: the third would take the
				// open batch to 12 bytes, so it leads a batch of its own.
				a := addAsync(g, bg, "aaaa")
				waitJoined(t, g, 1)
				b := addAsync(g, bg, "bbbb")
				waitJoined(t, g, 2)
				ctx, cancel := context.WithCancel(bg)
				addAsync(g, ctx, "cccc")
				if got := within(t, flushed, "the closed batch's flush"); got.buf != "aaaabbbb" ||
					!reflect.DeepEqual(got.ids, []string{"aaaa", "bbbb"}) {
					t.Fatalf("first flush %+v, want aaaa+bbbb within the bound", got)
				}
				for _, res := range []<-chan error{a, b} {
					if err := within(t, res, "a member of the closed batch"); err != nil {
						t.Fatalf("member of the closed batch: %v", err)
					}
				}
				waitJoined(t, g, 1)
				cancel()
				if got := within(t, flushed, "the overflowing record's flush"); got.buf != "cccc" {
					t.Fatalf("second flush %+v, want cccc alone", got)
				}
			},
		},
		{
			name:     "leader cancel still flushes followers",
			maxBytes: 1 << 20, maxDelay: time.Hour,
			run: func(t *testing.T, g *groupCommit, flushed <-chan flushCall) {
				ctx, cancel := context.WithCancel(bg)
				addAsync(g, ctx, "lead")
				waitJoined(t, g, 1)
				follower := addAsync(g, bg, "tail")
				waitJoined(t, g, 2)
				cancel()
				if got := within(t, flushed, "the cancelled leader's flush"); got.buf != "leadtail" {
					t.Fatalf("flushed %+v, want both records", got)
				}
				if err := within(t, follower, "the follower"); err != nil {
					t.Fatalf("follower behind a cancelled leader: %v", err)
				}
			},
		},
		{
			name:     "flush error reaches every blocked member",
			maxBytes: 1 << 20, maxDelay: time.Hour,
			flushErr: errBoom,
			run: func(t *testing.T, g *groupCommit, flushed <-chan flushCall) {
				ctx, cancel := context.WithCancel(bg)
				addAsync(g, ctx, "m0") // the leader; its own result races its ctx
				waitJoined(t, g, 1)
				members := []<-chan error{addAsync(g, bg, "m1"), addAsync(g, bg, "m2")}
				waitJoined(t, g, 3)
				cancel()
				for _, res := range members {
					if err := within(t, res, "a blocked member"); !errors.Is(err, errBoom) {
						t.Fatalf("member error = %v, want the flush error", err)
					}
				}
			},
		},
		{
			name:     "detached mode never parks the enqueuer",
			maxBytes: 1 << 20, maxDelay: time.Hour,
			detached: true,
			flushErr: errBoom, // a detached enqueuer does not see the flush result
			run: func(t *testing.T, g *groupCommit, flushed <-chan flushCall) {
				ctx, cancel := context.WithCancel(bg)
				for _, id := range []string{"r0", "r1"} {
					if err := within(t, addAsync(g, ctx, id), "a detached add"); err != nil {
						t.Fatalf("detached add = %v, want nil", err)
					}
				}
				select {
				case got := <-flushed:
					t.Fatalf("flushed %+v inside the batch window", got)
				default:
				}
				cancel()
				if got := within(t, flushed, "the detached leader's flush"); got.buf != "r0r1" {
					t.Fatalf("flushed %+v, want both records", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flushed := make(chan flushCall, 4)
			g := &groupCommit{
				maxBytes: tc.maxBytes,
				maxDelay: tc.maxDelay,
				detached: tc.detached,
				flush: func(_ context.Context, buf []byte, ids []string) error {
					flushed <- flushCall{string(buf), append([]string(nil), ids...)}
					return tc.flushErr
				},
			}
			tc.run(t, g, flushed)
		})
	}
}
