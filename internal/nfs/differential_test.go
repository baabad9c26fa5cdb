package nfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/faultfs"
	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// famBatchCall is one seeded invocation of the differential batch.
type famBatchCall struct {
	module, id string
	params     []byte
}

// seededFamBatch draws the differential batch from seed: correlation IDs,
// modules (one call in four goes to the always-failing module) and
// parameters (one in eight is 4 KiB, the rest under 200 B).
func seededFamBatch(seed int64, n int) []famBatchCall {
	rng := rand.New(rand.NewSource(seed))
	calls := make([]famBatchCall, n)
	for i := range calls {
		c := famBatchCall{module: "echo", id: fmt.Sprintf("%016x", rng.Uint64())}
		if rng.Intn(4) == 0 {
			c.module = "fail"
		}
		size := rng.Intn(200)
		if rng.Intn(8) == 0 {
			size = 4 << 10
		}
		c.params = make([]byte, size)
		rng.Read(c.params)
		calls[i] = c
	}
	return calls
}

// pollView is a view of a connection that cannot push: it hides WatchFS
// and keeps the file identity (GenStat), as a share whose server predates
// the notify lane would.
type pollView struct {
	smartfam.FS
	smartfam.GenStat
}

// runFamBatch serves calls over a fresh share — push end to end, or with
// both the daemon's and the host's view of their connections hiding
// WatchFS so every notice comes from polling (the daemon's tick sweep,
// the host's tick-driven router) — and compacts the echo log in the
// middle of the second half's traffic: its requests land between the
// compaction's read of the log and its rewrite, and wait in their modules
// until the compaction is done. It returns each call's outcome by
// correlation ID and the daemon's journal once Run has returned.
func runFamBatch(t *testing.T, calls []famBatchCall, push bool) (map[string]string, *smartfam.JournalState) {
	t.Helper()
	view := func(c *Client) smartfam.FS {
		if push {
			return c
		}
		return pollView{c, c}
	}
	srv := NewServer(t.TempDir())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
	})
	dconn, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dconn.Close() })
	share := view(dconn)
	// The compactor works on the connection itself — only it can replace —
	// through a fault layer that lets the test act inside CompactLog.
	compactor := faultfs.New(dconn)
	reg := smartfam.NewRegistry(compactor)
	// While hold is set, every module call waits for release: the second
	// half's requests stay pending across the compaction.
	var hold atomic.Bool
	release := make(chan struct{})
	wait := func(ctx context.Context) error {
		if !hold.Load() {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, m := range []smartfam.Module{
		smartfam.ModuleFunc{ModuleName: "echo", Fn: func(ctx context.Context, p []byte) ([]byte, error) {
			if err := wait(ctx); err != nil {
				return nil, err
			}
			return p, nil
		}},
		smartfam.ModuleFunc{ModuleName: "fail", Fn: func(ctx context.Context, p []byte) ([]byte, error) {
			if err := wait(ctx); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("refused %d bytes", len(p))
		}},
	} {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	jpath := filepath.Join(t.TempDir(), "journal")
	d := smartfam.NewDaemon(share, reg,
		smartfam.WithWorkers(len(calls)),
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithJournal(jpath))
	dctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Run(dctx)
	}()
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	defer func() {
		open()
		stop()
		<-done
	}()

	hconn, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hconn.Close() })
	hc := smartfam.NewClient(view(hconn), time.Millisecond)
	hostMetrics := metrics.NewRegistry()
	hc.SetMetrics(hostMetrics)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var mu sync.Mutex
	out := make(map[string]string, len(calls))
	invoke := func(part []famBatchCall) (wait func()) {
		var wg sync.WaitGroup
		for _, c := range part {
			wg.Add(1)
			go func(c famBatchCall) {
				defer wg.Done()
				res, err := hc.InvokeID(ctx, c.module, c.id, c.params)
				var merr *smartfam.ModuleError
				got := "ok:" + string(res)
				switch {
				case errors.As(err, &merr):
					got = "error:" + merr.Msg
				case err != nil:
					t.Errorf("%s %s: %v", c.module, c.id, err)
				}
				mu.Lock()
				out[c.id] = got
				mu.Unlock()
			}(c)
		}
		return wg.Wait
	}
	half := len(calls) / 2
	invoke(calls[:half])()
	// Compaction in the middle of traffic: the second half's requests land
	// after CompactLog has read the log and before it rewrites it, and wait
	// in their modules until it is done, so every one of them is pending.
	hold.Store(true)
	landed := func(c famBatchCall) bool {
		data, err := smartfam.ReadFrom(dconn, smartfam.LogName(c.module), 0)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, _ := smartfam.ParseRecords(data)
		for _, r := range recs {
			if r.Kind == smartfam.KindRequest && r.ID == c.id {
				return true
			}
		}
		return false
	}
	var second func()
	pending := 0
	compactor.CrashAfter(faultfs.OpRead, 0, func() {
		second = invoke(calls[half:])
		for _, c := range calls[half:] {
			for !landed(c) {
				time.Sleep(100 * time.Microsecond)
			}
			if c.module == "echo" {
				pending++
			}
		}
	})
	if kept, _, err := reg.CompactLog("echo"); err != nil || kept < pending || second == nil {
		t.Fatalf("CompactLog(echo) = (%d, %v), want every one of %d requests that landed during it kept", kept, err, pending)
	}
	open()
	second()
	if events := hostMetrics.Counter(metrics.FamPushEvents).Value(); push != (events > 0) {
		t.Fatalf("push=%v run routed %d push events", push, events)
	}

	stop()
	<-done // Run joins its response flushes: the journal is final
	_, state, err := smartfam.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	return out, state
}

// TestFamPushVsPollDifferential runs one seeded batch — an error module
// and compactions under traffic included — over push and over a pushless view
// of the same kind of share: the host's one router, notify-driven against
// tick-driven. Notify-carried responses must change nothing
// observable: the response for every correlation ID and the journal's end
// state are identical.
func TestFamPushVsPollDifferential(t *testing.T) {
	calls := seededFamBatch(17, 48)
	pushOut, pushState := runFamBatch(t, calls, true)
	pollOut, pollState := runFamBatch(t, calls, false)
	if len(pushOut) != len(calls) {
		t.Fatalf("push answered %d of %d calls", len(pushOut), len(calls))
	}
	for _, c := range calls {
		want := "ok:" + string(c.params)
		if c.module == "fail" {
			want = "error:" + fmt.Sprintf("refused %d bytes", len(c.params))
		}
		if pushOut[c.id] != want {
			t.Fatalf("push %s %s: got %.40q, want %.40q", c.module, c.id, pushOut[c.id], want)
		}
	}
	if !reflect.DeepEqual(pushOut, pollOut) {
		for id, v := range pushOut {
			if pollOut[id] != v {
				t.Errorf("id %s: push %.40q, poll %.40q", id, v, pollOut[id])
			}
		}
		t.Fatal("response sets differ between push and poll")
	}
	for _, st := range []*smartfam.JournalState{pushState, pollState} {
		if len(st.Completed) != len(calls) || len(st.Acked) != len(calls) || len(st.Intents) != 0 || st.Corrupt != 0 {
			t.Fatalf("journal: %d completed, %d acked, %d open intents, %d corrupt; want %d, %d, 0, 0",
				len(st.Completed), len(st.Acked), len(st.Intents), st.Corrupt, len(calls), len(calls))
		}
	}
	if !reflect.DeepEqual(pushState, pollState) {
		for id, c := range pushState.Completed {
			if p := pollState.Completed[id]; p.Module != c.Module || p.Status != c.Status || !bytes.Equal(p.Payload, c.Payload) {
				t.Errorf("id %s: push %+v, poll %+v", id, c, p)
			}
		}
		t.Fatal("journal end states differ between push and poll")
	}
}
