// Chaos integration test for the crash-safe smartFAM protocol: a daemon
// is killed mid-batch under torn-write and transient-error injection,
// restarted over the same share and journal, and every submitted request
// must receive exactly one response with no duplicate module executions —
// verified through the recovery/dedupe/corruption metrics the tentpole
// introduces. Run directly with: go test -run TestChaos -v .
package mcsd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/faultfs"
	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/nfs"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

func TestChaosCrashRestartExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	shareDir := t.TempDir()
	share := smartfam.DirFS(shareDir)
	jpath := filepath.Join(t.TempDir(), "journal")

	// The module under chaos: counts COMPLETED executions per payload
	// (aborted runs — the redo-log re-run case — do not count), and one
	// special "blocker" payload parks mid-execution until released, so the
	// first daemon is guaranteed to die with an open intent.
	var mu sync.Mutex
	completions := make(map[string]int)
	blockerStarted := make(chan struct{})
	var blockerOnce sync.Once
	release := make(chan struct{})
	newModule := func() smartfam.Module {
		return smartfam.ModuleFunc{ModuleName: "chaos", Fn: func(ctx context.Context, p []byte) ([]byte, error) {
			if string(p) == "blocker" {
				blockerOnce.Do(func() { close(blockerStarted) })
				select {
				case <-ctx.Done():
					return nil, ctx.Err() // daemon dying mid-execution
				case <-release:
				}
			}
			mu.Lock()
			completions[string(p)]++
			mu.Unlock()
			return append([]byte("done:"), p...), nil
		}}
	}

	reg1 := smartfam.NewRegistry(share)
	if err := reg1.Register(newModule()); err != nil {
		t.Fatal(err)
	}

	// Daemon 1, behind the fault layer. Heartbeat off so its only appends
	// through the faulted FS are response records and the one startup
	// status snapshot (status republish pushed out to an hour).
	ffs1 := faultfs.New(share)
	d1 := smartfam.NewDaemon(ffs1, reg1,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(3),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	kill1 := startChaosDaemon(d1)
	defer kill1()

	// Let the startup .queue snapshot land before arming faults, so the
	// armed tear deterministically hits a response append.
	chaosWait(t, 10*time.Second, "startup status snapshot", func() bool {
		// Landed, not just created: the snapshot is Create then Append,
		// and an Append still in flight would take the fault armed next.
		size, _, err := share.Stat(smartfam.QueueStatusName)
		return err == nil && size > 0
	})
	// The first response append is torn mid-record. It carries a batch of
	// k equal-length 58 B records (k <= 12), and the tear keeps
	// int(58k × 0.37) bytes: for k = 1..12 the cut falls 21, 42, 6, 27,
	// 49, 12, 34, 55, 19, 40, 4, 25 bytes into a record, never within a
	// byte of a record boundary, so some record is always cut.
	ffs1.TearNext(1, 0.37)
	ffs1.FailNext(faultfs.OpStat, 3) // plus a burst of transient errors
	ffs1.FailNextWith(faultfs.OpRead, 1, faultfs.ErrInjected)

	// The batch: 12 concurrent invocations over the (unfaulted) share,
	// each with a caller-chosen idempotency ID. #0 is the blocker.
	const n = 12
	ids := make([]string, n)
	payloads := make([]string, n)
	results := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	cctx, ccancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer ccancel()
	for i := 0; i < n; i++ {
		ids[i] = smartfam.NewID()
		payloads[i] = "p" + ids[i]
		if i == 0 {
			payloads[i] = "blocker"
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := smartfam.NewClient(share, time.Millisecond)
			out, err := c.InvokeID(cctx, "chaos", ids[i], []byte(payloads[i]))
			results[i], errs[i] = string(out), err
		}(i)
	}

	// Kill daemon 1 only once it is provably mid-batch: the blocker is
	// executing (open intent in the journal) and at least a few other
	// requests have completed under fault injection.
	<-blockerStarted
	chaosWait(t, 30*time.Second, "some completions before the crash", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(completions) >= 3
	})
	kill1()
	close(release) // un-park the blocker for the second life

	// Daemon 2: same share, same journal, fresh fault layer with its own
	// transient faults. Recovery must re-run the blocker's open intent and
	// answer everything else exactly once.
	reg2 := smartfam.NewRegistry(share)
	if err := reg2.Register(newModule()); err != nil {
		t.Fatal(err)
	}
	ffs2 := faultfs.New(share)
	ffs2.FailNext(faultfs.OpList, 2)
	ffs2.FailNext(faultfs.OpStat, 2)
	d2 := smartfam.NewDaemon(ffs2, reg2,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(3),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	defer startChaosDaemon(d2)()

	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d (%s): %v", i, payloads[i], errs[i])
		}
		if want := "done:" + payloads[i]; results[i] != want {
			t.Fatalf("request %d: result %q, want %q", i, results[i], want)
		}
	}

	// Exactly-once execution: every payload completed exactly once across
	// both daemon lives, including the blocker (its first, aborted run
	// never completed).
	mu.Lock()
	for p, c := range completions {
		if c != 1 {
			mu.Unlock()
			t.Fatalf("payload %q completed %d times, want exactly 1", p, c)
		}
	}
	if len(completions) != n {
		mu.Unlock()
		t.Fatalf("%d payloads completed, want %d", len(completions), n)
	}
	mu.Unlock()

	// Exactly one response record per request on the share.
	data, err := smartfam.ReadFrom(share, smartfam.LogName("chaos"), 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := smartfam.ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	resCount := make(map[string]int)
	for _, r := range recs {
		if r.Kind == smartfam.KindResponse {
			resCount[r.ID]++
		}
	}
	for i, id := range ids {
		if resCount[id] != 1 {
			t.Fatalf("request %d has %d responses, want exactly 1", i, resCount[id])
		}
	}

	// A host retry reusing its original ID must be served from the cache:
	// one more response record, zero more executions.
	c := smartfam.NewClient(share, time.Millisecond)
	retryIdx := 1
	out, err := c.InvokeID(cctx, "chaos", ids[retryIdx], []byte(payloads[retryIdx]))
	if err != nil {
		t.Fatal(err)
	}
	if want := "done:" + payloads[retryIdx]; string(out) != want {
		t.Fatalf("retried result = %q, want %q", out, want)
	}
	mu.Lock()
	if completions[payloads[retryIdx]] != 1 {
		mu.Unlock()
		t.Fatalf("retry re-executed the module (%d completions)", completions[payloads[retryIdx]])
	}
	mu.Unlock()

	// The metrics tell the recovery story: the blocker's intent was
	// re-run, the retry was deduped, and the torn append was detected.
	if v := d2.Metrics().Counter("smartfam.daemon.recovered").Value(); v < 1 {
		t.Errorf("daemon2 recovered = %d, want >= 1 (the blocker's open intent)", v)
	}
	if v := d2.Metrics().Counter("smartfam.daemon.deduped").Value(); v < 1 {
		t.Errorf("daemon2 deduped = %d, want >= 1 (the ID-reusing retry)", v)
	}
	corrupt := d1.Metrics().Counter("smartfam.corrupt_records").Value() +
		d2.Metrics().Counter("smartfam.corrupt_records").Value()
	if corrupt < 1 {
		t.Errorf("corrupt_records = %d across both lives, want >= 1 (the torn append)", corrupt)
	}
	if v := d1.Metrics().Counter("smartfam.daemon.aborted").Value(); v < 1 {
		t.Errorf("daemon1 aborted = %d, want >= 1 (the blocker died with the daemon)", v)
	}
}

// TestChaosFleetNodeKillMidJob scatters a word count over three SD
// daemons, one bundle each, then kills one mid-job — while it is provably
// executing its bundle and with transient faults injected into its share.
// The fleet coordinator must mark the node down, re-place the bundle whole
// on a survivor, and still produce output byte-identical to a single-node
// run with every bundle answered exactly once.
func TestChaosFleetNodeKillMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	dataDir := t.TempDir()
	corpus := workloads.GenerateTextBytes(150_000, 83)
	if err := os.WriteFile(filepath.Join(dataDir, "corpus.txt"), corpus, 0o644); err != nil {
		t.Fatal(err)
	}

	// Single-node reference: the bytes every fleet run must reproduce.
	refMod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dataDir), Workers: 1})
	refParams, err := json.Marshal(core.WordCountParams{DataFile: "corpus.txt", EmitPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	refRaw, err := refMod.Run(context.Background(), refParams)
	if err != nil {
		t.Fatal(err)
	}
	var refOut core.WordCountOutput
	if err := core.Decode(refRaw, &refOut); err != nil {
		t.Fatal(err)
	}
	want := fleet.CanonicalWordCount(&refOut)

	// Three daemons over their own shares; node 0 is the victim. Its first
	// word-count invocation, its bundle, parks mid-execution (closing
	// started) until its daemon dies, so the kill is guaranteed to land
	// while the bundle is in flight.
	const victim = 0
	started := make(chan struct{})
	var (
		startedOnce  sync.Once
		parkedParams []byte // the parked invocation's; written before started closes
	)
	nodes := make([]fleet.Node, 3)
	var victimKill func()
	for i := range nodes {
		share := smartfam.DirFS(t.TempDir())
		mod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dataDir), Workers: 1})
		if i == victim {
			inner := mod
			first := true
			var mu sync.Mutex
			mod = smartfam.ModuleFunc{ModuleName: inner.Name(), Fn: func(ctx context.Context, p []byte) ([]byte, error) {
				mu.Lock()
				blocking := first
				first = false
				mu.Unlock()
				if blocking {
					startedOnce.Do(func() {
						parkedParams = p
						close(started)
					})
					<-ctx.Done() // park until the daemon dies
					return nil, ctx.Err()
				}
				return inner.Run(ctx, p)
			}}
		}
		reg := smartfam.NewRegistry(share)
		if err := reg.Register(mod); err != nil {
			t.Fatal(err)
		}
		// The victim's daemon AND its host-side session run through fault
		// layers with transient errors armed: recovery must ride them out.
		// Each side gets its own layer. Shared, a Stat fault could land on
		// the session's first invocation instead of the daemon, failing it
		// before it reached the share: the coordinator then re-placed the
		// victim's fragments before it ever started one, and the test timed
		// out waiting for the mid-fragment kill it exists for. The session
		// keeps an append fault, which its bounded append retry absorbs.
		var daemonFS, sessionFS smartfam.FS = share, share
		if i == victim {
			dfs := faultfs.New(share)
			dfs.FailNext(faultfs.OpStat, 2)
			dfs.FailNext(faultfs.OpAppend, 1)
			sfs := faultfs.New(share)
			sfs.FailNext(faultfs.OpAppend, 1)
			daemonFS, sessionFS = dfs, sfs
		}
		daemon := smartfam.NewDaemon(daemonFS, reg,
			smartfam.WithPollInterval(time.Millisecond),
			smartfam.WithHeartbeat(-1),
			smartfam.WithWorkers(2))
		// Registered after the share's TempDir: the daemon has stopped
		// before the directory is removed.
		stop := startChaosDaemon(daemon)
		t.Cleanup(stop)
		if i == victim {
			victimKill = stop
		}
		nodes[i] = fleet.Node{
			Name:    []string{"sd-a", "sd-b", "sd-c"}[i],
			Session: smartfam.NewClient(sessionFS, time.Millisecond),
		}
	}

	coord := fleet.NewCoordinator(nodes, fleet.Config{
		AttemptTimeout:  1500 * time.Millisecond,
		MinStragglerAge: time.Hour, // isolate the failover path from speculation
	})
	type outcome struct {
		res *fleet.WordCountResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.WordCount(context.Background(), fleet.WordCountJob{
			DataFile:      "corpus.txt",
			TotalBytes:    int64(len(corpus)),
			FragmentBytes: 12 << 10,
		})
		done <- outcome{res, err}
	}()

	// Kill the victim only once it is provably mid-bundle.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the victim to start its bundle")
	}
	var parked core.WordCountParams
	if err := json.Unmarshal(parkedParams, &parked); err != nil || len(parked.Ranges) < 2 {
		t.Fatalf("the victim parked on %d ranges (err %v), want its multi-range bundle", len(parked.Ranges), err)
	}
	victimKill()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("fleet job did not finish after the node kill")
	}
	if out.err != nil {
		t.Fatalf("fleet word count failed after node kill: %v", out.err)
	}
	if got := fleet.CanonicalWordCount(&out.res.Output); !bytes.Equal(got, want) {
		t.Fatal("merged output differs from the single-node reference after a mid-job node kill")
	}
	if out.res.Stats.NodeFailures < 1 {
		t.Errorf("NodeFailures = %d, want >= 1 (the killed daemon)", out.res.Stats.NodeFailures)
	}
	if out.res.Stats.MovedFragments < 1 {
		t.Errorf("MovedFragments = %d, want >= 1 (re-placement off the dead node)", out.res.Stats.MovedFragments)
	}

	// Exactly once: every bundle, one per node, has one winning result,
	// and none of the winners is the dead node.
	seen := make(map[int]bool)
	for _, fr := range out.res.Fragments {
		if seen[fr.Index] {
			t.Fatalf("bundle %d returned twice", fr.Index)
		}
		seen[fr.Index] = true
		if fr.Node == "sd-a" {
			t.Fatalf("bundle %d won on the killed node", fr.Index)
		}
	}
	if len(seen) != len(nodes) {
		t.Fatalf("%d bundles answered, want one per node (%d)", len(seen), len(nodes))
	}
}

// TestChaosGroupCommitFlushCrashExactlyOnce kills a daemon at the group
// commit's worst crash point: every request has executed, journaled DONE
// and joined a response batch, but no batch flush ever reaches the share —
// the window between the staged batch append and its commit, modelled here
// by a share that rejects every append until the daemon dies. The restarted
// daemon must replay every cached response from the journal exactly once:
// no re-execution, no duplicate response records, and every polling host
// unblocked.
func TestChaosGroupCommitFlushCrashExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	shareDir := t.TempDir()
	share := smartfam.DirFS(shareDir)
	jpath := filepath.Join(t.TempDir(), "journal")

	var mu sync.Mutex
	completions := make(map[string]int)
	newModule := func() smartfam.Module {
		return smartfam.ModuleFunc{ModuleName: "gcommit", Fn: func(_ context.Context, p []byte) ([]byte, error) {
			mu.Lock()
			completions[string(p)]++
			mu.Unlock()
			return append([]byte("done:"), p...), nil
		}}
	}

	reg1 := smartfam.NewRegistry(share)
	if err := reg1.Register(newModule()); err != nil {
		t.Fatal(err)
	}
	ffs1 := faultfs.New(share)
	d1 := smartfam.NewDaemon(ffs1, reg1,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(3),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	kill1 := startChaosDaemon(d1)
	defer kill1()

	// Let the startup .queue snapshot land, then cut off ALL further
	// appends: execution, DONE journalling and response caching proceed
	// normally while every batch flush exhausts its retries.
	chaosWait(t, 10*time.Second, "startup status snapshot", func() bool {
		// Landed, not just created: the snapshot is Create then Append,
		// and an Append still in flight would take the fault armed next.
		size, _, err := share.Stat(smartfam.QueueStatusName)
		return err == nil && size > 0
	})
	ffs1.FailNext(faultfs.OpAppend, 1<<20)

	const n = 10
	ids := make([]string, n)
	payloads := make([]string, n)
	results := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	cctx, ccancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer ccancel()
	for i := 0; i < n; i++ {
		ids[i] = smartfam.NewID()
		payloads[i] = "p" + ids[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := smartfam.NewClient(share, time.Millisecond)
			out, err := c.InvokeID(cctx, "gcommit", ids[i], []byte(payloads[i]))
			results[i], errs[i] = string(out), err
		}(i)
	}

	// A request's DONE entry is journaled before it joins a batch, so once
	// all n requests are counted under respond_errors (the batch leaders'
	// final flush failures) the journal provably holds every completed
	// execution — and not one response record reached the share.
	chaosWait(t, 30*time.Second, "every batch flush to fail", func() bool {
		return d1.Metrics().Counter("smartfam.respond_errors").Value() >= n
	})
	if v := d1.Metrics().Counter("smartfam.fam.resp_batch_flushes").Value(); v != 0 {
		t.Fatalf("%d response batches landed despite the injected append faults", v)
	}
	kill1()

	// Daemon 2: same share, same journal, its own transient faults.
	// Recovery must re-append every cached response without re-running the
	// module.
	reg2 := smartfam.NewRegistry(share)
	if err := reg2.Register(newModule()); err != nil {
		t.Fatal(err)
	}
	ffs2 := faultfs.New(share)
	ffs2.FailNext(faultfs.OpList, 2)
	ffs2.FailNext(faultfs.OpStat, 2)
	d2 := smartfam.NewDaemon(ffs2, reg2,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(3),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	defer startChaosDaemon(d2)()

	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if want := "done:" + payloads[i]; results[i] != want {
			t.Fatalf("request %d: result %q, want %q", i, results[i], want)
		}
	}
	mu.Lock()
	for p, c := range completions {
		if c != 1 {
			mu.Unlock()
			t.Fatalf("payload %q completed %d times, want exactly 1", p, c)
		}
	}
	if len(completions) != n {
		mu.Unlock()
		t.Fatalf("%d payloads completed, want %d", len(completions), n)
	}
	mu.Unlock()
	assertOneResponsePerID(t, share, "gcommit", ids)
	// The recovery pass counts a replay once its append has returned, so
	// the caller it answers can return first: wait for the count, do not
	// sample it.
	recovered := d2.Metrics().Counter("smartfam.daemon.recovered")
	if !waitUntil(10*time.Second, func() bool { return recovered.Value() >= n }) {
		t.Errorf("daemon2 recovered = %d, want >= %d (one cached-response replay per lost batch member)", recovered.Value(), n)
	}
}

// TestChaosPushDaemonKillMidNotifyStream is the push-topology variant: the
// daemon serves over a live server-push notify stream (behind the fault
// layer) with response batching armed, the host invokes through group
// commit with its routers mid-flight — and the daemon is killed with every
// response batch stuck before its commit. The host's notify stream to the
// server survives the daemon's death, so the restarted daemon's journal
// replay must reach the still-waiting push callers exactly once, without
// any host retry or fallback to polling.
func TestChaosPushDaemonKillMidNotifyStream(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	srv := nfs.NewServer(t.TempDir())
	defer srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck // torn down via Shutdown
	dial := func() *nfs.Client {
		conn, err := nfs.Dial(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	jpath := filepath.Join(t.TempDir(), "journal")

	var mu sync.Mutex
	completions := make(map[string]int)
	newModule := func() smartfam.Module {
		return smartfam.ModuleFunc{ModuleName: "pushmod", Fn: func(_ context.Context, p []byte) ([]byte, error) {
			mu.Lock()
			completions[string(p)]++
			mu.Unlock()
			return append([]byte("done:"), p...), nil
		}}
	}

	// Daemon 1 over its own connection, behind the fault layer — which now
	// forwards Watch, so push stays armed THROUGH the faults.
	conn1 := dial()
	ffs1 := faultfs.New(conn1)
	reg1 := smartfam.NewRegistry(ffs1)
	if err := reg1.Register(newModule()); err != nil {
		t.Fatal(err)
	}
	d1 := smartfam.NewDaemon(ffs1, reg1,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(3),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	kill1 := startChaosDaemon(d1)
	defer kill1()

	// The host: its own connection, push routers plus request group commit.
	hconn := dial()
	defer hconn.Close()
	hc := smartfam.NewClient(hconn, time.Millisecond)
	hm := metrics.NewRegistry()
	hc.SetMetrics(hm)

	chaosWait(t, 10*time.Second, "startup status snapshot", func() bool {
		// Landed, not just created: the snapshot is Create then Append,
		// and an Append still in flight would take the fault armed next.
		size, _, err := hconn.Stat(smartfam.QueueStatusName)
		return err == nil && size > 0
	})
	chaosWait(t, 10*time.Second, "daemon notify stream to arm", func() bool {
		return d1.Metrics().Gauge("smartfam.fam.push_active").Value() == 1
	})
	ffs1.FailNext(faultfs.OpAppend, 1<<20) // every response batch commit fails from here on

	const n = 10
	ids := make([]string, n)
	payloads := make([]string, n)
	results := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	cctx, ccancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer ccancel()
	for i := 0; i < n; i++ {
		ids[i] = smartfam.NewID()
		payloads[i] = "p" + ids[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := hc.InvokeID(cctx, "pushmod", ids[i], []byte(payloads[i]))
			results[i], errs[i] = string(out), err
		}(i)
	}

	// Kill only once every request has executed, journaled DONE and failed
	// its batch commit: the daemon dies mid-notify-stream with n responses
	// stranded between their staged batch and the share.
	chaosWait(t, 30*time.Second, "every batch flush to fail", func() bool {
		return d1.Metrics().Counter("smartfam.respond_errors").Value() >= n
	})
	if v := d1.Metrics().Counter("smartfam.fam.push_events").Value(); v < 1 {
		t.Errorf("daemon1 push_events = %d, want >= 1 (the kill must land mid-stream, not in polling mode)", v)
	}
	kill1()
	conn1.Close()

	// Daemon 2: fresh connection, same journal, its own transient faults.
	conn2 := dial()
	defer conn2.Close()
	ffs2 := faultfs.New(conn2)
	reg2 := smartfam.NewRegistry(ffs2)
	if err := reg2.Register(newModule()); err != nil {
		t.Fatal(err)
	}
	ffs2.FailNext(faultfs.OpList, 2)
	ffs2.FailNext(faultfs.OpStat, 2)
	d2 := smartfam.NewDaemon(ffs2, reg2,
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(3),
		smartfam.WithStatusInterval(time.Hour),
		smartfam.WithJournal(jpath))
	defer startChaosDaemon(d2)()

	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if want := "done:" + payloads[i]; results[i] != want {
			t.Fatalf("request %d: result %q, want %q", i, results[i], want)
		}
	}
	mu.Lock()
	for p, c := range completions {
		if c != 1 {
			mu.Unlock()
			t.Fatalf("payload %q completed %d times, want exactly 1", p, c)
		}
	}
	if len(completions) != n {
		mu.Unlock()
		t.Fatalf("%d payloads completed, want %d", len(completions), n)
	}
	mu.Unlock()
	assertOneResponsePerID(t, hconn, "pushmod", ids)
	// The recovery pass counts a replay after its append, whose notify
	// already carried the response to the host: the last count may still
	// be in flight here.
	chaosWait(t, 10*time.Second, "daemon2 to count every replay as recovered", func() bool {
		return d2.Metrics().Counter("smartfam.daemon.recovered").Value() >= n
	})

	// The host must have been carried by push + group commit end to end:
	// notify deliveries woke its routers, its requests travelled in batches,
	// and it never degraded to polling.
	if v := hm.Counter("smartfam.fam.push_events").Value(); v < 1 {
		t.Errorf("host push_events = %d, want >= 1 (responses must arrive via notify)", v)
	}
	if v := hm.Counter("smartfam.fam.batch_flushes").Value(); v < 1 {
		t.Errorf("host batch_flushes = %d, want >= 1 (requests must travel via group commit)", v)
	}
	if v := hm.Counter("smartfam.fam.degraded").Value(); v != 0 {
		t.Errorf("host degraded %d times; its stream to the server must survive the daemon kill", v)
	}
}

// assertOneResponsePerID reads the module log and fails unless every ID
// has exactly one response record on the share.
func assertOneResponsePerID(t *testing.T, fs smartfam.FS, module string, ids []string) {
	t.Helper()
	data, err := smartfam.ReadFrom(fs, smartfam.LogName(module), 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := smartfam.ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	resCount := make(map[string]int)
	for _, r := range recs {
		if r.Kind == smartfam.KindResponse {
			resCount[r.ID]++
		}
	}
	for i, id := range ids {
		if resCount[id] != 1 {
			t.Fatalf("request %d has %d responses, want exactly 1", i, resCount[id])
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
// startChaosDaemon runs d in the background and returns its kill switch:
// cancel, then wait for Run to return. Run joins everything it started, so
// after kill nothing of this daemon touches the share, its journal or the
// TempDirs they live in. Calling kill again is a no-op.
func startChaosDaemon(d *smartfam.Daemon) (kill func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx) //nolint:errcheck // returns ctx.Err() once killed
	}()
	return func() {
		cancel()
		<-done
	}
}

func chaosWait(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	if !waitUntil(d, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// waitUntil polls cond every 2 ms for up to d and reports whether it held.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
