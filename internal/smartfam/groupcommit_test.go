package smartfam

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// flushCall is one batch as the flush function saw it.
type flushCall struct {
	buf string
	ids []string
}

// waitJoined blocks until the open batch holds n records; at n == 0, until
// no batch is open.
func waitJoined(t *testing.T, g *groupCommit, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		g.mu.Lock()
		joined := (n == 0 && g.cur == nil) || (g.cur != nil && len(g.cur.ids) == n)
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

// leaderGate holds every group-commit leader in place of its yield until
// the test lets it go, naming the batch by its first record's ID.
type leaderGate struct {
	mu      sync.Mutex
	release map[string]chan struct{}
}

// holdLeaders installs a leaderGate for the rest of the test; cleanup
// lets every leader still held go.
func holdLeaders(t *testing.T) *leaderGate {
	lg := &leaderGate{release: make(map[string]chan struct{})}
	hold := func(g *groupCommit, b *commitBatch) {
		g.mu.Lock()
		first := b.ids[0]
		g.mu.Unlock()
		<-lg.gate(first)
	}
	testYield.Store(&hold)
	t.Cleanup(func() {
		testYield.Store(nil)
		lg.mu.Lock()
		ids := make([]string, 0, len(lg.release))
		for id := range lg.release {
			ids = append(ids, id)
		}
		lg.mu.Unlock()
		for _, id := range ids {
			lg.let(id)
		}
	})
	return lg
}

func (lg *leaderGate) gate(id string) chan struct{} {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	ch := lg.release[id]
	if ch == nil {
		ch = make(chan struct{})
		lg.release[id] = ch
	}
	return ch
}

// let releases the leader of the batch whose first record is id, whether
// or not it has reached the gate yet.
func (lg *leaderGate) let(id string) {
	ch := lg.gate(id)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	select {
	case <-ch: // already let go
	default:
		close(ch)
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

	// Every case holds its leaders in place of the yield (holdLeaders) and
	// lets each go once its batch has the members the case wants.
	cases := []struct {
		name     string
		maxBytes int
		detached bool
		flushErr error
		run      func(t *testing.T, g *groupCommit, lg *leaderGate, flushed <-chan flushCall)
	}{
		{
			name:     "byte-bound close opens a fresh batch",
			maxBytes: 8,
			run: func(t *testing.T, g *groupCommit, lg *leaderGate, flushed <-chan flushCall) {
				a := addAsync(g, bg, "aaaa")
				waitJoined(t, g, 1)
				b := addAsync(g, bg, "bbbb") // reaches the bound: closes the batch
				waitJoined(t, g, 0)
				addAsync(g, bg, "cccc")
				waitJoined(t, g, 1) // a batch of its own, not a late join of the closed one
				lg.let("aaaa")
				if got := within(t, flushed, "the full batch's flush"); got.buf != "aaaabbbb" ||
					!reflect.DeepEqual(got.ids, []string{"aaaa", "bbbb"}) {
					t.Fatalf("full batch flushed %+v, want aaaa+bbbb in join order", got)
				}
				for _, res := range []<-chan error{a, b} {
					if err := within(t, res, "a member of the full batch"); err != nil {
						t.Fatalf("member of the full batch: %v", err)
					}
				}
				lg.let("cccc")
				if got := within(t, flushed, "the fresh batch's flush"); got.buf != "cccc" {
					t.Fatalf("fresh batch flushed %+v, want cccc alone", got)
				}
			},
		},
		{
			name:     "a record that would overflow closes the batch first",
			maxBytes: 10,
			run: func(t *testing.T, g *groupCommit, lg *leaderGate, flushed <-chan flushCall) {
				// Three records of 0.4 x maxBytes: the third would take the
				// open batch to 12 bytes, so it leads a batch of its own.
				a := addAsync(g, bg, "aaaa")
				waitJoined(t, g, 1)
				b := addAsync(g, bg, "bbbb")
				waitJoined(t, g, 2)
				addAsync(g, bg, "cccc")
				waitJoined(t, g, 1)
				lg.let("aaaa")
				if got := within(t, flushed, "the closed batch's flush"); got.buf != "aaaabbbb" ||
					!reflect.DeepEqual(got.ids, []string{"aaaa", "bbbb"}) {
					t.Fatalf("first flush %+v, want aaaa+bbbb within the bound", got)
				}
				for _, res := range []<-chan error{a, b} {
					if err := within(t, res, "a member of the closed batch"); err != nil {
						t.Fatalf("member of the closed batch: %v", err)
					}
				}
				lg.let("cccc")
				if got := within(t, flushed, "the overflowing record's flush"); got.buf != "cccc" {
					t.Fatalf("second flush %+v, want cccc alone", got)
				}
			},
		},
		{
			name:     "leader cancel still flushes followers",
			maxBytes: 1 << 20,
			run: func(t *testing.T, g *groupCommit, lg *leaderGate, flushed <-chan flushCall) {
				ctx, cancel := context.WithCancel(bg)
				addAsync(g, ctx, "lead")
				waitJoined(t, g, 1)
				follower := addAsync(g, bg, "tail")
				waitJoined(t, g, 2)
				cancel()
				lg.let("lead")
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
			maxBytes: 1 << 20,
			flushErr: errBoom,
			run: func(t *testing.T, g *groupCommit, lg *leaderGate, flushed <-chan flushCall) {
				ctx, cancel := context.WithCancel(bg)
				addAsync(g, ctx, "m0") // the leader; its own result races its ctx
				waitJoined(t, g, 1)
				members := []<-chan error{addAsync(g, bg, "m1"), addAsync(g, bg, "m2")}
				waitJoined(t, g, 3)
				cancel()
				lg.let("m0")
				for _, res := range members {
					if err := within(t, res, "a blocked member"); !errors.Is(err, errBoom) {
						t.Fatalf("member error = %v, want the flush error", err)
					}
				}
			},
		},
		{
			name:     "detached mode never parks the enqueuer",
			maxBytes: 1 << 20,
			detached: true,
			flushErr: errBoom, // a detached enqueuer does not see the flush result
			run: func(t *testing.T, g *groupCommit, lg *leaderGate, flushed <-chan flushCall) {
				for _, id := range []string{"r0", "r1"} {
					if err := within(t, addAsync(g, bg, id), "a detached add"); err != nil {
						t.Fatalf("detached add = %v, want nil", err)
					}
				}
				select {
				case got := <-flushed:
					t.Fatalf("flushed %+v while its leader was held", got)
				default:
				}
				lg.let("r0")
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
				detached: tc.detached,
				flush: func(_ context.Context, buf []byte, ids []string) error {
					flushed <- flushCall{string(buf), append([]string(nil), ids...)}
					return tc.flushErr
				},
			}
			tc.run(t, g, holdLeaders(t), flushed)
			if tc.detached {
				g.leaders.Wait()
			}
		})
	}
}

// TestGroupCommitYieldGathersRunnableCallers pins the leader's yield, the
// one thing that batches without a timer: on one processor, callers that
// are runnable when the leader yields join its batch before it flushes.
// The scheduler resumes a yielded goroutine first on one tick in 61, so a
// single trial may miss; one trial in twenty must batch every caller.
func TestGroupCommitYieldGathersRunnableCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const followers = 8
	for trial := 0; trial < 20; trial++ {
		var (
			mu      sync.Mutex
			biggest int
		)
		g := &groupCommit{maxBytes: 1 << 20, flush: func(_ context.Context, _ []byte, ids []string) error {
			mu.Lock()
			biggest = max(biggest, len(ids))
			mu.Unlock()
			return nil
		}}
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = g.add(context.Background(), "follower", []byte("f"))
			}()
		}
		// The followers are runnable but have not run: this goroutine
		// holds the only processor until its add yields.
		if err := g.add(context.Background(), "leader", []byte("l")); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if biggest == followers+1 {
			return
		}
	}
	t.Fatalf("no trial batched the leader with its %d runnable followers", followers)
}
