package smartfam

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// pushHub is a DirFS share that notifies the way the nfs server does: an
// append made through one of its views reaches every matching stream with
// the bytes and their offset inline (bare past DefaultBatchBytes), a
// Create arrives bare. Writes to the DirFS itself are out of band. drop,
// when set, filters events per stream prefix — a notify the server's
// bounded queue dropped.
type pushHub struct {
	FS
	mu      sync.Mutex
	streams map[*hubStream]struct{}
	drop    func(prefix string, ev WatchEvent) bool
}

func newPushHub(t *testing.T) *pushHub {
	return &pushHub{FS: DirFS(t.TempDir()), streams: make(map[*hubStream]struct{})}
}

// id is name's identity on the hub's DirFS. Caller holds h.mu.
func (h *pushHub) id(name string) uint64 {
	_, _, id, _ := h.FS.(GenStat).StatGen(name)
	return id
}

// emit fans ev out to the matching streams. Caller holds h.mu, so streams
// see mutations in the order they happened.
func (h *pushHub) emit(ev WatchEvent) {
	for s := range h.streams {
		if !strings.HasPrefix(ev.Name, s.prefix) || (h.drop != nil && h.drop(s.prefix, ev)) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
		}
	}
}

func (h *pushHub) view() *hubView {
	return &hubView{hub: h, stats: make(map[string]int), reads: make(map[string]int),
		readBytes: make(map[string]int), statOpen: make(map[string]bool)}
}

type hubStream struct {
	hub    *pushHub
	prefix string
	ch     chan WatchEvent
}

func (s *hubStream) Events() <-chan WatchEvent { return s.ch }

func (s *hubStream) Close() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	if _, ok := s.hub.streams[s]; ok {
		delete(s.hub.streams, s)
		close(s.ch)
	}
	return nil
}

// hubView is one node's mount of the hub; it counts its Stat and ReadAt
// calls, and the bytes the reads returned, per file. A Stat counts before
// the call and a ReadAt once it returns, so statOpen names the files whose
// last counted operation is a Stat with no ReadAt after it yet.
type hubView struct {
	hub       *pushHub
	mu        sync.Mutex
	stats     map[string]int
	reads     map[string]int
	readBytes map[string]int
	statOpen  map[string]bool
}

// calls snapshots the view's Stat and ReadAt counts: all of them, and the
// Stats and ReadAts of name.
func (v *hubView) calls(name string) (all, stats, reads int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.callsLocked(name)
}

func (v *hubView) callsLocked(name string) (all, stats, reads int) {
	for _, m := range []map[string]int{v.stats, v.reads} {
		for _, n := range m {
			all += n
		}
	}
	return all, v.stats[name], v.reads[name]
}

// settledCalls is calls taken at a moment when name's last counted
// operation is a ReadAt, so the snapshot never splits a Stat from the
// read that follows it.
func (v *hubView) settledCalls(t *testing.T, name string) (all, stats, reads int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v.mu.Lock()
		if !v.statOpen[name] {
			defer v.mu.Unlock()
			return v.callsLocked(name)
		}
		v.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("%s: a Stat with no ReadAt after it for 5s", name)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (v *hubView) readsOf(name string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reads[name]
}

func (v *hubView) bytesReadOf(name string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.readBytes[name]
}

func (v *hubView) Create(name string) error {
	h := v.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.FS.Create(name); err != nil {
		return err
	}
	h.emit(WatchEvent{Name: name, Gen: h.id(name)})
	return nil
}

func (v *hubView) Append(name string, data []byte) error {
	h := v.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	off, _, err := h.FS.Stat(name)
	if err != nil && !errors.Is(err, ErrNotExist) {
		return err
	}
	if err := h.FS.Append(name, data); err != nil {
		return err
	}
	ev := WatchEvent{Name: name, Gen: h.id(name)}
	if len(data) <= DefaultBatchBytes {
		ev.Off, ev.Data = off, bytes.Clone(data)
	}
	h.emit(ev)
	return nil
}

func (v *hubView) ReadAt(name string, p []byte, off int64) (int, error) {
	n, err := v.hub.FS.ReadAt(name, p, off)
	v.mu.Lock()
	v.reads[name]++
	v.readBytes[name] += n
	v.statOpen[name] = false
	v.mu.Unlock()
	return n, err
}

func (v *hubView) Stat(name string) (int64, time.Time, error) {
	v.mu.Lock()
	v.stats[name]++
	v.statOpen[name] = true
	v.mu.Unlock()
	return v.hub.FS.Stat(name)
}

// StatGen counts as a Stat.
func (v *hubView) StatGen(name string) (int64, time.Time, uint64, error) {
	v.mu.Lock()
	v.stats[name]++
	v.statOpen[name] = true
	v.mu.Unlock()
	return v.hub.FS.(GenStat).StatGen(name)
}

// ReplaceIf replaces through the hub, which notifies bare with the new
// identity, as the nfs server does after a commit.
func (v *hubView) ReplaceIf(name string, data []byte, size int64) error {
	h := v.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.FS.(ReplaceFS).ReplaceIf(name, data, size); err != nil {
		return err
	}
	h.emit(WatchEvent{Name: name, Gen: h.id(name)})
	return nil
}

func (v *hubView) List() ([]string, error)              { return v.hub.FS.List() }
func (v *hubView) Remove(name string) error             { return v.hub.FS.Remove(name) }
func (v *hubView) Rename(oldname, newname string) error { return v.hub.FS.Rename(oldname, newname) }

func (v *hubView) Watch(prefix string) (WatchStream, error) {
	s := &hubStream{hub: v.hub, prefix: prefix, ch: make(chan WatchEvent, 1024)}
	v.hub.mu.Lock()
	v.hub.streams[s] = struct{}{}
	v.hub.mu.Unlock()
	return s, nil
}

var (
	_ WatchFS   = (*hubView)(nil)
	_ ReplaceFS = (*hubView)(nil)
)

// responseLine marshals an ok response record.
func responseLine(t *testing.T, id, payload string) []byte {
	t.Helper()
	line, err := Record{Kind: KindResponse, ID: id, Status: StatusOK, Payload: []byte(payload)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// requestLine marshals a request record.
func requestLine(t *testing.T, id, payload string) []byte {
	t.Helper()
	line, err := Record{Kind: KindRequest, ID: id, Payload: []byte(payload)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestFamPushInlineCostsNoRouterReads pins the tentpole: with every
// response carried by its notify, N pushed invocations cost the host zero
// ReadAt calls on the module log. The client's interval puts the safety
// floor at one second, so only the notifies can answer in time.
func TestFamPushInlineCostsNoRouterReads(t *testing.T) {
	hub := newPushHub(t)
	sd := hub.view()
	reg := NewRegistry(sd)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	runDaemon(t, NewDaemon(sd, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
	host := hub.view()
	c := NewClient(host, 100*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("inline-%d", i)
			out, err := c.Invoke(ctx, "echo", []byte(want))
			if err == nil && string(out) != "echo:"+want {
				err = fmt.Errorf("call %d: got %q", i, out)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r := host.readsOf(LogName("echo")); r != 0 {
		t.Fatalf("router issued %d ReadAt calls on the log, want 0", r)
	}
}

// TestFamPushLargeResponse pins the router's read of a record longer than
// its scan buffer: the response arrives bare (past the inline bound) and
// the whole of it sits beyond scanChunk, so the router must grow its buffer
// until the record completes instead of waiting on a read that can never
// hold it.
func TestFamPushLargeResponse(t *testing.T) {
	hub := newPushHub(t)
	sd := hub.view()
	reg := NewRegistry(sd)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	runDaemon(t, NewDaemon(sd, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
	c := NewClient(hub.view(), time.Millisecond)
	rng := rand.New(rand.NewSource(21))
	for _, size := range []int{300 << 10, 1 << 20} {
		params := make([]byte, size)
		rng.Read(params)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := c.Invoke(ctx, "echo", params)
		cancel()
		if err != nil {
			t.Fatalf("%d B echo: %v", size, err)
		}
		if !bytes.Equal(out, append([]byte("echo:"), params...)) {
			t.Fatalf("%d B echo: %d B answer differs", size, len(out))
		}
	}
}

// bareRouter builds a router over fsys with no watch armed: the test plays
// the notify stream by calling take and scan itself.
func bareRouter(fsys FS, module string) *respRouter {
	return &respRouter{
		c:       NewClient(fsys, time.Millisecond),
		module:  module,
		logName: LogName(module),
		waiters: make(map[string]waiter),
		cur:     logCursor{fs: fsys, name: LogName(module)},
	}
}

// TestRouterInlineFallbacks pins respRouter.take's decisions: bytes at the
// offset are delivered without a read, and so are bytes past it, held until
// the notify for the gap arrives; a notify whose bytes a scan already
// consumed is skipped; a torn inline tail, and a gap behind one, fall back
// to a scan.
func TestRouterInlineFallbacks(t *testing.T) {
	hub := newPushHub(t)
	log := LogName("m")
	if err := hub.FS.Create(log); err != nil {
		t.Fatal(err)
	}
	host := hub.view()
	rt := bareRouter(host, "m")
	chs := make(map[string]chan Record)
	for _, id := range []string{"r1", "r2", "r3", "r4", "r5", "r6"} {
		chs[id] = rt.register(t.Context(), id, requestLine(t, id, "p"))
	}
	land := func(data []byte) WatchEvent {
		t.Helper()
		off, _, err := hub.FS.Stat(log)
		if err != nil {
			t.Fatal(err)
		}
		if err := hub.FS.Append(log, data); err != nil {
			t.Fatal(err)
		}
		return WatchEvent{Name: log, Off: off, Data: data}
	}
	delivered := func(id string) {
		t.Helper()
		select {
		case rec := <-chs[id]:
			if string(rec.Payload) != "p-"+id {
				t.Fatalf("%s: payload %q", id, rec.Payload)
			}
		default:
			t.Fatalf("%s not delivered", id)
		}
	}
	reads := func(want int) {
		t.Helper()
		if got := host.readsOf(log); got != want {
			t.Fatalf("%d ReadAt calls so far, want %d", got, want)
		}
	}

	if !rt.take(land(responseLine(t, "r1", "p-r1"))) {
		t.Fatal("bytes at the offset not taken")
	}
	delivered("r1")
	reads(0)

	ev2 := land(responseLine(t, "r2", "p-r2")) // its notify is late
	if !rt.take(land(responseLine(t, "r3", "p-r3"))) {
		t.Fatal("notify past a gap not held")
	}
	select {
	case <-chs["r3"]:
		t.Fatal("r3 delivered before the gap in front of it closed")
	default:
	}
	if !rt.take(ev2) {
		t.Fatal("notify closing the gap not taken")
	}
	delivered("r2")
	delivered("r3")
	reads(0)

	ev4 := land(responseLine(t, "r4", "p-r4")) // its notify is late
	rt.scan()
	delivered("r4")
	reads(1)
	if !rt.take(ev4) {
		t.Fatal("notify for bytes a scan consumed not skipped")
	}
	reads(1)

	r6 := responseLine(t, "r6", "p-r6")
	if rt.take(land(append(responseLine(t, "r5", "p-r5"), r6[:len(r6)/2]...))) {
		t.Fatal("torn inline tail taken whole")
	}
	delivered("r5")
	rt.scan() // the quarantined half alone: nothing to deliver yet
	if rt.take(land(r6[len(r6)/2:])) {
		t.Fatal("tail completion behind the quarantined record held")
	}
	rt.scan()
	delivered("r6")
	if size, _, _ := hub.FS.Stat(log); rt.cur.off != size {
		t.Fatalf("router offset %d, log size %d", rt.cur.off, size)
	}
}

// invokeAsync runs one InvokeID in the background.
func invokeAsync(ctx context.Context, c *Client, module, id, params string) <-chan error {
	done := make(chan error, 1)
	go func() {
		out, err := c.InvokeID(ctx, module, id, []byte(params))
		if err == nil && string(out) != "echo:"+params {
			err = fmt.Errorf("%s: got %q", id, out)
		}
		done <- err
	}()
	return done
}

// waitRequest polls the log until the request record for id has landed.
func waitRequest(t *testing.T, fsys FS, module, id string) {
	t.Helper()
	waitRequestCopies(t, fsys, module, id, 1)
}

// waitRequestCopies polls the log until n request records for id have
// landed.
func waitRequestCopies(t *testing.T, fsys FS, module, id string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		data, _ := ReadFrom(fsys, LogName(module), 0)
		recs, _, _, _ := ParseRecords(data)
		copies := 0
		for _, r := range recs {
			if r.Kind == KindRequest && r.ID == id {
				copies++
			}
		}
		if copies >= n {
			return
		}
	}
	t.Fatalf("request %s never landed %d times", id, n)
}

// waitPrompt fails unless done reports success well inside routerLinger:
// a response the notifies should deliver must not be left to the safety
// scan's compaction probe.
func waitPrompt(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(routerLinger / 2):
		t.Fatalf("%s: no response within %v", what, routerLinger/2)
	}
}

// TestRouterCompactionMidStream pins the rewind: a compaction (one
// conditional replace by the kept records) under a live router moves
// every offset back, so the response landing behind the kept request
// arrives at an offset the router's old image had long consumed. The
// rewind appends the pending waiter's request again, and the response
// must be delivered at once — with a waiter pending, and after a
// compaction the router slept through — by a notify-driven router and by
// a tick-driven one on a share that cannot push, which no notify ever
// tells of a compaction.
func TestRouterCompactionMidStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		host func(hub *pushHub) FS
	}{
		{"notify-driven", func(hub *pushHub) FS { return hub.view() }},
		{"tick-driven", func(hub *pushHub) FS { return hub.FS }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := newPushHub(t)
			sd := hub.view()
			reg := NewRegistry(sd)
			if err := reg.Register(echoModule()); err != nil {
				t.Fatal(err)
			}
			log := LogName("echo")
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("old-%d", i)
				pair := append(requestLine(t, id, "x"), responseLine(t, id, "echo:x")...)
				if err := sd.Append(log, pair); err != nil {
					t.Fatal(err)
				}
			}
			// A one-second safety floor: pushed, only the notifies can
			// answer in time; pushless, the 100ms tick must.
			c := NewClient(tc.host(hub), 100*time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// w1's record pair outweighs w2's, so w2's whole exchange also
			// lands below the offset the router holds after w1.
			one := "one-" + strings.Repeat("x", 200)
			w1 := invokeAsync(ctx, c, "echo", "w1", one)
			waitRequest(t, hub.FS, "echo", "w1")
			if kept, _, err := reg.CompactLog("echo"); err != nil || kept != 1 {
				t.Fatalf("CompactLog = (%d, %v), want the one pending request kept", kept, err)
			}
			// The kept request and the rewind's copy, then the answer.
			waitRequestCopies(t, hub.FS, "echo", "w1", 2)
			if err := sd.Append(log, responseLine(t, "w1", "echo:"+one)); err != nil {
				t.Fatal(err)
			}
			waitPrompt(t, w1, "waiter across the compaction")

			// Idle router: the compaction's bare Create finds no waiter to
			// scan for.
			if kept, _, err := reg.CompactLog("echo"); err != nil || kept != 0 {
				t.Fatalf("CompactLog = (%d, %v), want nothing kept", kept, err)
			}
			time.Sleep(10 * time.Millisecond)
			w2 := invokeAsync(ctx, c, "echo", "w2", "two")
			waitRequest(t, hub.FS, "echo", "w2")
			if err := sd.Append(log, responseLine(t, "w2", "echo:two")); err != nil {
				t.Fatal(err)
			}
			waitPrompt(t, w2, "first invocation after an unseen compaction")
		})
	}
}

// TestPushlessCallersShareOneReader pins the tick-driven router: on a share
// that cannot push, the callers waiting on one module log share one reader,
// so the share I/O of a wait does not grow with the number of callers.
// Sixteen callers waiting out twenty ticks on a module that holds every
// answer cost about what one caller does, and every Stat of the log after
// the router armed is a tick's compaction check, paired with that tick's
// read — a caller that joins the router issues none of its own.
func TestPushlessCallersShareOneReader(t *testing.T) {
	const interval = 5 * time.Millisecond
	wait := func(t *testing.T, callers int) int {
		hub := newPushHub(t)
		release := make(chan struct{})
		reg := NewRegistry(hub.FS)
		if err := reg.Register(ModuleFunc{
			ModuleName: "echo",
			Fn: func(ctx context.Context, params []byte) ([]byte, error) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return append([]byte("echo:"), params...), nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		runDaemon(t, NewDaemon(hub.FS, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1), WithWorkers(callers)))
		host := hub.view()
		c := NewClient(struct{ FS }{host}, interval) // hides WatchFS
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		done := []<-chan error{invokeAsync(ctx, c, "echo", "c0", "p0")}
		waitRequest(t, hub.FS, "echo", "c0")
		// The router armed before c0 appended: from here on, the log's
		// Stats are the router's own unless a caller issues one.
		log := LogName("echo")
		all0, stats0, reads0 := host.calls(log)
		for i := 1; i < callers; i++ {
			done = append(done, invokeAsync(ctx, c, "echo", fmt.Sprintf("c%d", i), fmt.Sprintf("p%d", i)))
		}
		for i := 1; i < callers; i++ {
			waitRequest(t, hub.FS, "echo", fmt.Sprintf("c%d", i))
		}
		time.Sleep(20 * interval)
		all, stats, reads := host.settledCalls(t, log)
		all, stats, reads = all-all0, stats-stats0, reads-reads0
		close(release)
		for _, d := range done {
			if err := <-d; err != nil {
				t.Fatal(err)
			}
		}
		if reads == 0 {
			t.Fatalf("%d callers: no tick read the log in %v", callers, 20*interval)
		}
		if stats > reads {
			t.Fatalf("%d callers: %d Stats of the log against %d reads after the router armed; want no Stat without a tick's read",
				callers, stats, reads)
		}
		return all
	}
	one := wait(t, 1)
	many := wait(t, 16)
	t.Logf("share Stat/ReadAt calls over the wait: 1 caller %d, 16 callers %d", one, many)
	if many > 2*one+8 {
		t.Fatalf("16 callers cost %d share Stat/ReadAt calls over the wait, 1 caller %d: the reader is not shared",
			many, one)
	}
}

// TestRouterSafetyScanAnswers pins the safety scan's reach: a response
// whose notify was dropped, and one from a daemon that bypasses the
// notifying server altogether, are both answered within routerLinger
// plus a round trip (here: none) even though the stream stays live.
func TestRouterSafetyScanAnswers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		daemon func(hub *pushHub) FS
	}{
		{"dropped notify", func(hub *pushHub) FS {
			hub.drop = func(prefix string, ev WatchEvent) bool {
				return prefix != "" && bytes.Contains(ev.Data, []byte("\n"+KindResponse+" "))
			}
			return hub.view()
		}},
		{"out-of-band writer", func(hub *pushHub) FS { return hub.FS }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := newPushHub(t)
			sd := tc.daemon(hub)
			reg := NewRegistry(sd)
			if err := reg.Register(echoModule()); err != nil {
				t.Fatal(err)
			}
			runDaemon(t, NewDaemon(sd, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
			host := hub.view()
			c := NewClient(host, time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 5; i++ {
				start := time.Now()
				params := fmt.Sprintf("call-%d", i)
				out, err := c.Invoke(ctx, "echo", []byte(params))
				if err != nil || string(out) != "echo:"+params {
					t.Fatalf("call %d: (%q, %v)", i, out, err)
				}
				if took := time.Since(start); took > routerLinger+250*time.Millisecond {
					t.Fatalf("call %d answered after %v, want within routerLinger (%v)", i, took, routerLinger)
				}
			}
			if host.readsOf(LogName("echo")) == 0 {
				t.Fatal("no safety scan ran, yet every response's notify was missing")
			}
		})
	}
}

// waitResponses polls the log until at least n response records have
// landed.
func waitResponses(t *testing.T, fsys FS, module string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		data, _ := ReadFrom(fsys, LogName(module), 0)
		recs, _, _, _ := ParseRecords(data)
		got := 0
		for _, r := range recs {
			if r.Kind == KindResponse {
				got++
			}
		}
		if got >= n {
			return
		}
	}
	t.Fatalf("%d responses never landed", n)
}

// TestRouterReassemblesOutOfOrder pins the reassembly: the notifies of a
// burst of invocations, held back until every response has landed and
// then released reversed or shuffled, are consumed in log order as the
// gaps close — every response reaches its waiter and the log is never
// read. The client's interval puts the size probe ten seconds out, so no
// read could stand in for a notify.
func TestRouterReassemblesOutOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		permute func([]WatchEvent)
	}{
		{"reversed", slices.Reverse[[]WatchEvent]},
		{"shuffled", func(evs []WatchEvent) {
			rand.New(rand.NewSource(20)).Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := newPushHub(t)
			sd := hub.view()
			reg := NewRegistry(sd)
			if err := reg.Register(echoModule()); err != nil {
				t.Fatal(err)
			}
			runDaemon(t, NewDaemon(sd, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
			host := hub.view()
			c := NewClient(host, time.Second)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			// One in-order invocation arms the router.
			if out, err := c.Invoke(ctx, "echo", []byte("arm")); err != nil || string(out) != "echo:arm" {
				t.Fatalf("arming call: (%q, %v)", out, err)
			}

			var held []WatchEvent // guarded by hub.mu
			hub.mu.Lock()
			hub.drop = func(prefix string, ev WatchEvent) bool {
				if prefix == "" {
					return false // the daemon's stream
				}
				held = append(held, ev)
				return true
			}
			hub.mu.Unlock()
			const n = 16
			done := make([]<-chan error, n)
			for i := range done {
				done[i] = invokeAsync(ctx, c, "echo", fmt.Sprintf("ooo-%d", i), fmt.Sprintf("p%d", i))
			}
			waitResponses(t, hub.FS, "echo", n+1)

			hub.mu.Lock()
			hub.drop = nil
			tc.permute(held)
			for _, ev := range held {
				for s := range hub.streams {
					if s.prefix != "" && strings.HasPrefix(ev.Name, s.prefix) {
						s.ch <- ev
					}
				}
			}
			hub.mu.Unlock()
			for i, d := range done {
				waitPrompt(t, d, fmt.Sprintf("call %d", i))
			}
			if r := host.readsOf(LogName("echo")); r != 0 {
				t.Fatalf("router issued %d ReadAt calls on the log, want 0", r)
			}
		})
	}
}

// TestRouterProbeReadsOnlyUndelivered pins what the size probe reads: with
// every response's notify dropped under concurrent invocations, the bytes
// the router reads from the log are exactly the dropped ones — never a
// request appended behind a dropped response, though its notify exposes
// the gap, and never a byte twice.
func TestRouterProbeReadsOnlyUndelivered(t *testing.T) {
	hub := newPushHub(t)
	// Dropped appends by offset, guarded by hub.mu: callers racing to arm
	// the router briefly hold a second host stream, and an append dropped
	// on both streams is still only one append's bytes to read.
	dropped := make(map[int64]int)
	hub.drop = func(prefix string, ev WatchEvent) bool {
		if prefix == "" || !bytes.Contains(ev.Data, []byte("\n"+KindResponse+" ")) {
			return false
		}
		dropped[ev.Off] = len(ev.Data)
		return true
	}
	sd := hub.view()
	reg := NewRegistry(sd)
	if err := reg.Register(echoModule()); err != nil {
		t.Fatal(err)
	}
	runDaemon(t, NewDaemon(sd, reg, WithPollInterval(time.Millisecond), WithHeartbeat(-1)))
	host := hub.view()
	c := NewClient(host, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const callers, calls = 4, 4
	var wg sync.WaitGroup
	errs := make(chan error, callers*calls)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				params := fmt.Sprintf("call-%d-%d", w, i)
				if out, err := c.Invoke(ctx, "echo", []byte(params)); err != nil || string(out) != "echo:"+params {
					errs <- fmt.Errorf("%s: (%q, %v)", params, out, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hub.mu.Lock()
	want := 0
	for _, n := range dropped {
		want += n
	}
	hub.mu.Unlock()
	if want == 0 {
		t.Fatal("no response notify was dropped")
	}
	if got := host.bytesReadOf(LogName("echo")); got != want {
		t.Fatalf("router read %d bytes of the log, want exactly the %d whose notifies were dropped", got, want)
	}
}
